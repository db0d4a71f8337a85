#include "netlist/transistor.hpp"

#include "geom/text_buffer.hpp"

namespace bb::netlist {

std::string_view kindName(TransKind k) noexcept {
  return k == TransKind::Enhancement ? "enh" : "dep";
}

int TransistorNetlist::anonNet() {
  const int id = static_cast<int>(nets_.size());
  geom::TextBuffer name;
  name << 'n' << anon_++;
  nets_.push_back(Net{name.take(), false});
  return id;
}

void TransistorNetlist::rename(int net, const std::string& name) {
  if (net < 0 || net >= static_cast<int>(nets_.size())) return;
  byName_.erase(nets_[static_cast<std::size_t>(net)].name);
  nets_[static_cast<std::size_t>(net)].name = name;
  nets_[static_cast<std::size_t>(net)].isNamed = true;
  byName_[name] = net;
}

std::size_t TransistorNetlist::enhancementCount() const noexcept {
  std::size_t n = 0;
  for (const Transistor& t : trans_) {
    if (t.kind == TransKind::Enhancement) ++n;
  }
  return n;
}

std::size_t TransistorNetlist::depletionCount() const noexcept {
  return trans_.size() - enhancementCount();
}

int TransistorNetlist::findNet(const std::string& name) const noexcept {
  auto it = byName_.find(name);
  return it == byName_.end() ? -1 : it->second;
}

void TransistorNetlist::toText(geom::TextBuffer& os) const {
  // A device line is under 72 bytes on the sample chips.
  os.reserve(trans_.size() * 72 + 64);
  os << "transistor diagram: " << trans_.size() << " devices ("
     << enhancementCount() << " enh, " << depletionCount() << " dep), " << nets_.size()
     << " nets\n";
  const auto nn = [&](int id) -> std::string_view {
    return id >= 0 && id < static_cast<int>(nets_.size())
               ? std::string_view(nets_[static_cast<std::size_t>(id)].name)
               : "?";
  };
  int i = 0;
  for (const Transistor& t : trans_) {
    geom::Record rec(os);
    rec << 'M' << i++ << ' ' << kindName(t.kind) << " g=" << nn(t.gate) << " s=" << nn(t.source)
        << " d=" << nn(t.drain) << " w/l=" << t.width << '/' << t.length << " at ("
        << t.at.x << ',' << t.at.y << ")\n";
    rec.flush();
  }
}

std::string TransistorNetlist::toText() const {
  geom::TextBuffer out;
  toText(out);
  return out.take();
}

}  // namespace bb::netlist
