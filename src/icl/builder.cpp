#include "icl/builder.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string_view>

namespace bb::icl {

ParamValue syms(std::vector<std::string> names) {
  ParamValue::List list;
  list.reserve(names.size());
  for (std::string& n : names) list.push_back(sym(std::move(n)));
  return ParamValue(std::move(list));
}

FieldDecl field(std::string name, int lo, int hi) {
  FieldDecl f;
  f.name = std::move(name);
  f.lo = lo;
  f.hi = hi;
  return f;
}

BuildItem item(std::string kind, std::string name, ParamList params) {
  BuildItem out;
  ElementDecl e;
  e.kind = std::move(kind);
  e.name = std::move(name);
  for (Param& p : params) {
    // The map keeps the first occurrence; the duplication itself is
    // recorded here, while declaration order still shows it.
    if (!e.params.emplace(p.first, std::move(p.second)).second) {
      out.problems.push_back("element '" + e.name + "' parameter '" + p.first +
                             "' given twice");
    }
  }
  out.node = CoreItem{std::move(e)};
  return out;
}

namespace {

/// Strip a BuildItem list into its AST nodes, collecting the problems.
std::vector<CoreItem> takeNodes(std::vector<BuildItem>& items,
                                std::vector<std::string>& problems) {
  std::vector<CoreItem> nodes;
  nodes.reserve(items.size());
  for (BuildItem& it : items) {
    nodes.push_back(std::move(it.node));
    problems.insert(problems.end(), std::make_move_iterator(it.problems.begin()),
                    std::make_move_iterator(it.problems.end()));
  }
  return nodes;
}

}  // namespace

BuildItem cond(std::string var, std::vector<BuildItem> thenItems,
               std::vector<BuildItem> elseItems) {
  BuildItem out;
  CondBlock c;
  c.var = std::move(var);
  c.thenItems = takeNodes(thenItems, out.problems);
  c.elseItems = takeNodes(elseItems, out.problems);
  out.node = CoreItem{std::move(c)};
  return out;
}

BuildItem condNot(std::string var, std::vector<BuildItem> thenItems,
                  std::vector<BuildItem> elseItems) {
  BuildItem it = cond(std::move(var), std::move(thenItems), std::move(elseItems));
  std::get<CondBlock>(it.node.node).negate = true;
  return it;
}

ChipBuilder::ChipBuilder(std::string name) { desc_.name = std::move(name); }

ChipBuilder& ChipBuilder::var(std::string name, bool value) {
  if (!desc_.vars.emplace(name, value).second) {
    pending_.error({}, "variable '" + name + "' declared twice");
  }
  return *this;
}

ChipBuilder& ChipBuilder::microcode(int width, std::vector<FieldDecl> fields) {
  desc_.microcode.width = width;
  for (FieldDecl& f : fields) desc_.microcode.fields.push_back(std::move(f));
  return *this;
}

ChipBuilder& ChipBuilder::field(std::string name, int lo, int hi) {
  desc_.microcode.fields.push_back(icl::field(std::move(name), lo, hi));
  return *this;
}

ChipBuilder& ChipBuilder::dataWidth(int width) {
  desc_.dataWidth = width;
  return *this;
}

ChipBuilder& ChipBuilder::bus(std::string name) {
  desc_.buses.push_back(std::move(name));
  return *this;
}

ChipBuilder& ChipBuilder::buses(std::vector<std::string> names) {
  for (std::string& n : names) desc_.buses.push_back(std::move(n));
  return *this;
}

ChipBuilder& ChipBuilder::element(std::string kind, std::string name, ParamList params) {
  return add(item(std::move(kind), std::move(name), std::move(params)));
}

ChipBuilder& ChipBuilder::add(BuildItem buildItem) {
  for (std::string& p : buildItem.problems) pending_.error({}, std::move(p));
  desc_.core.push_back(std::move(buildItem.node));
  return *this;
}

ChipBuilder& ChipBuilder::when(std::string var, std::vector<BuildItem> thenItems) {
  return add(cond(std::move(var), std::move(thenItems)));
}

ChipBuilder& ChipBuilder::whenNot(std::string var, std::vector<BuildItem> thenItems) {
  return add(condNot(std::move(var), std::move(thenItems)));
}

ChipBuilder& ChipBuilder::elseItems(std::vector<BuildItem> items) {
  CondBlock* block = desc_.core.empty()
                         ? nullptr
                         : std::get_if<CondBlock>(&desc_.core.back().node);
  if (block == nullptr) {
    pending_.error({}, "elseItems() without a preceding when()/whenNot()");
    return *this;
  }
  if (!block->elseItems.empty()) {
    pending_.error({}, "conditional on '" + block->var + "' already has an else branch");
    return *this;
  }
  std::vector<std::string> problems;
  block->elseItems = takeNodes(items, problems);
  for (std::string& p : problems) pending_.error({}, std::move(p));
  return *this;
}

core::Expected<ChipDesc> ChipBuilder::build() const {
  DiagnosticList diags = pending_;
  const bool structureOk = !diags.hasErrors();
  if (!validateChipDesc(desc_, diags) || !structureOk) {
    return core::Expected<ChipDesc>::failure(std::move(diags));
  }
  return core::Expected<ChipDesc>(desc_, std::move(diags));
}

ChipDesc ChipBuilder::buildOrDie() const {
  auto result = build();
  if (!result) {
    std::fprintf(stderr, "ChipBuilder::buildOrDie: invalid chip description:\n%s",
                 result.diagnostics().toString().c_str());
    std::abort();
  }
  return std::move(*result);
}

namespace {

/// The widest microcode field: decoding builds `(1ll << bits) - 1`,
/// which is defined up to 62 bits.
constexpr int kMaxFieldBits = 62;

/// Element names in scope while walking the core, and every name as it
/// was inserted (so a conditional can hide its then-branch's names).
struct NameScope {
  std::set<std::string_view> names;
  std::vector<std::string_view> added;
};

/// Walk one item list for element-name uniqueness. The two branches of a
/// conditional are mutually exclusive, so the same name may appear in
/// both; names from either branch are visible (and reserved) afterwards.
void checkItems(const std::vector<CoreItem>& items, NameScope& scope, DiagnosticList& diags) {
  for (const CoreItem& it : items) {
    if (const auto* e = std::get_if<ElementDecl>(&it.node)) {
      if (e->kind.empty()) diags.error(e->loc, "element '" + e->name + "' has an empty kind");
      if (e->name.empty()) {
        diags.error(e->loc, "element of kind '" + e->kind + "' has an empty name");
      } else if (scope.names.insert(e->name).second) {
        scope.added.push_back(e->name);
      } else {
        diags.error(e->loc, "duplicate element name '" + e->name + "'");
      }
      if (e->params.contains("")) {
        diags.error(e->loc, "element '" + e->name + "' has an empty parameter name");
      }
    } else if (const auto* c = std::get_if<CondBlock>(&it.node)) {
      if (c->var.empty()) diags.error(c->loc, "conditional block with an empty variable name");
      if (c->thenItems.empty() && c->elseItems.empty()) {
        diags.warning(c->loc, "conditional on '" + c->var + "' has no items");
      }
      const std::size_t mark = scope.added.size();
      checkItems(c->thenItems, scope, diags);
      const std::size_t thenEnd = scope.added.size();
      for (std::size_t i = mark; i < thenEnd; ++i) scope.names.erase(scope.added[i]);
      checkItems(c->elseItems, scope, diags);
      for (std::size_t i = mark; i < thenEnd; ++i) scope.names.insert(scope.added[i]);
    }
  }
}

bool inOrder(const FieldDecl& f) { return f.lo >= 0 && f.hi >= f.lo; }

/// A field's bounds as written between its brackets: "lo:hi".
std::string bounds(const FieldDecl& f) {
  return std::to_string(f.lo) + ":" + std::to_string(f.hi);
}

}  // namespace

bool validateChipDesc(const ChipDesc& desc, DiagnosticList& diags) {
  const std::size_t errorsBefore = diags.count(Severity::Error);
  if (desc.name.empty()) diags.error({}, "chip name is empty");

  const MicrocodeDecl& mc = desc.microcode;
  if (mc.width <= 0) {
    diags.error(mc.loc, "microcode width must be positive (got " +
                            std::to_string(mc.width) + ")");
  } else if (mc.width > 64) {
    diags.error(mc.loc, "microcode width must be at most 64 (got " +
                            std::to_string(mc.width) + ")");
  }
  for (auto f = mc.fields.begin(); f != mc.fields.end(); ++f) {
    if (f->name.empty()) {
      diags.error(f->loc, "microcode field with an empty name");
    } else if (std::any_of(mc.fields.begin(), f,
                           [&](const FieldDecl& g) { return g.name == f->name; })) {
      diags.error(f->loc, "duplicate microcode field '" + f->name + "'");
    }
    if (!inOrder(*f)) {
      diags.error(f->loc, "field '" + f->name + "' has a bad bit range [" + bounds(*f) + "]");
      continue;
    }
    if (mc.width > 0 && f->hi >= mc.width) {
      diags.error(f->loc, "field '" + f->name + "' bits [" + bounds(*f) +
                              "] exceed microcode width " + std::to_string(mc.width));
    }
    if (f->hi - f->lo >= kMaxFieldBits) {
      diags.error(f->loc, "field '" + f->name + "' bits [" + bounds(*f) +
                              "] are wider than " + std::to_string(kMaxFieldBits) + " bits");
    }
    const auto other = std::find_if(mc.fields.begin(), f, [&](const FieldDecl& g) {
      return inOrder(g) && g.lo <= f->hi && f->lo <= g.hi;
    });
    if (other != f) {
      diags.error(f->loc, "field '" + f->name + "' overlaps field '" + other->name +
                              "' at bit " + std::to_string(std::max(f->lo, other->lo)));
    }
  }

  if (desc.dataWidth <= 0) {
    diags.error({}, "data width must be positive (got " +
                        std::to_string(desc.dataWidth) + ")");
  } else if (desc.dataWidth > 64) {
    diags.error({}, "data width must be at most 64 (got " +
                        std::to_string(desc.dataWidth) + ")");
  }

  // The paper: "at most two buses may run through any element".
  if (desc.buses.empty()) {
    diags.error({}, "chip declares no buses");
  } else if (desc.buses.size() > 2) {
    diags.error({}, "chip declares " + std::to_string(desc.buses.size()) +
                        " buses; at most two may run through an element");
  }
  for (auto b = desc.buses.begin(); b != desc.buses.end(); ++b) {
    if (b->empty()) {
      diags.error({}, "bus with an empty name");
    } else if (std::find(desc.buses.begin(), b, *b) != b) {
      diags.error({}, "duplicate bus '" + *b + "'");
    }
  }

  if (desc.core.empty()) diags.error({}, "chip core is empty");
  NameScope scope;
  checkItems(desc.core, scope, diags);
  return diags.count(Severity::Error) == errorsBefore;
}

}  // namespace bb::icl
