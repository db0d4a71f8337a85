#include "core/batch.hpp"

#include "core/pool.hpp"

namespace bb::core {

namespace {

using Clock = std::chrono::steady_clock;

/// A job's report name: its own label, else the compiled chip's name.
std::string resolveName(BatchJob& job, const BatchResult& res, std::size_t i) {
  if (!job.name.empty()) return std::move(job.name);
  if (res.chip != nullptr) return res.chip->desc.name;
  return "<job " + std::to_string(i) + ">";
}

}  // namespace

BatchCompiler::BatchCompiler(CompileOptions defaults, unsigned threads)
    : defaults_(std::move(defaults)),
      threads_(threads != 0 ? threads : ThreadPool::global().workerCount() + 1) {}

BatchCompiler& BatchCompiler::withDrc(const tech::RuleDeck& deck, drc::DrcOptions opts) {
  drcDeck_ = &deck;
  drcOpts_ = opts;
  return *this;
}

std::vector<BatchResult> BatchCompiler::compileAll(std::vector<BatchJob> jobs) const {
  std::vector<BatchResult> results(jobs.size());

  // One DeckChecker for the whole batch: the per-deck rule-unit plan is
  // shared by every job instead of being rebuilt per chip.
  std::optional<drc::DeckChecker> checker;
  if (drcDeck_ != nullptr) checker.emplace(*drcDeck_, drcOpts_);

  const Clock::time_point batchStart = Clock::now();
  ThreadPool::global().parallelFor(
      jobs.size(), 1,
      [&](std::size_t i) {
        BatchJob& job = jobs[i];
        BatchResult& res = results[i];
        const Clock::time_point t0 = Clock::now();
        CompileSession session =
            job.desc.has_value()
                ? CompileSession(std::move(*job.desc), std::move(job.opts))
                : CompileSession(std::move(job.source), std::move(job.opts));
        auto outcome = session.run();
        res.diags = outcome.diagnostics();
        if (outcome) res.chip = std::move(*outcome);
        res.name = resolveName(job, res, i);
        if (checker && res.chip != nullptr) {
          res.drc = checker->check(res.chip->flatTop(), res.chip->top->boundary());
        }
        const Clock::time_point now = Clock::now();
        res.elapsed = now - t0;
        res.finishedAfter = now - batchStart;
      },
      threads_);
  return results;
}

std::vector<BatchResult> BatchCompiler::compileAll(
    const std::vector<std::string>& sources) const {
  std::vector<BatchJob> jobs;
  jobs.reserve(sources.size());
  for (const std::string& src : sources) jobs.push_back({"", src, defaults_});
  return compileAll(std::move(jobs));
}

std::vector<BatchResult> BatchCompiler::compileAll(
    std::vector<icl::ChipDesc> descs) const {
  std::vector<BatchJob> jobs;
  jobs.reserve(descs.size());
  for (icl::ChipDesc& desc : descs) jobs.push_back({"", std::move(desc), defaults_});
  return compileAll(std::move(jobs));
}

}  // namespace bb::core
