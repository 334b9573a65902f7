// The workload interface: a seeded generator of an op ring with expected
// outcomes, the construction of its world, and the per-op call and traced
// replay.

#ifndef XSEC_E2EBENCH_SRC_WORKLOAD_H_
#define XSEC_E2EBENCH_SRC_WORKLOAD_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/src/common.h"

namespace xsec::e2e {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  // Builds the model and the op ring from the seed alone. `tiny` shrinks both
  // for the self-test.
  virtual void Generate(uint64_t seed, bool tiny) = 0;

  // Builds a fresh world for the generated model into `env` (the runner
  // times this as set-up). Ops then run from ring position 0.
  virtual void Build(Env* env) = 0;

  // Issues one op through the system's public calls (stats ticks and polls
  // are issued by the runner).
  virtual Outcome Execute(Env& env, const Op& op) = 0;

  // Traced run: replays `op`'s inputs through each layer's entry point as
  // children of span `parent`, after the op itself ran. Returns the time of
  // the replayed layers that lie on the op's own path. Not called for
  // ticks, polls, unloads and admin calls, which are timed as op spans.
  virtual uint64_t Replay(Env& env, Tracer& tracer, uint32_t parent, uint64_t op_id,
                          const Op& op) = 0;

  // The (subject, node, mode) decision tuples `op` makes, leaf last, for the
  // input-property report.
  virtual void Tuples(const Op& op, std::vector<uint64_t>* out) const = 0;

  // Checks of the workload's own over a measured window, beyond the per-op
  // oracle: BeginWindow runs before the window, EndWindow after it and
  // returns the number of checks that failed, each described in `report`.
  virtual void BeginWindow(Env& env) {}
  virtual uint64_t EndWindow(Env& env, std::string* report) { return 0; }

  const std::vector<Op>& ring() const { return ring_; }
  const InputProps& props() const { return props_; }

 protected:
  // The last two slots of every `tick_every_` ops are a stats tick and a
  // poll of the subscription; returns true when it filled slot `position`.
  bool AddStatsOp(size_t position) {
    size_t slot = position % tick_every_;
    if (slot + 2 < tick_every_) {
      return false;
    }
    ring_.push_back(Op{slot + 2 == tick_every_ ? OpKind::kTick : OpKind::kPoll});
    return true;
  }
  // Decision tuples of a CheckPath on `node` (ancestors' list checks, leaf last).
  void PathTuples(int principal, MClass cls, int node, uint32_t modes,
                  std::vector<uint64_t>* out) const;

  PolicyModel model_;
  std::vector<Op> ring_;
  InputProps props_;
  size_t tick_every_ = 4096;
  // The model principal and class of each subject index.
  std::vector<std::pair<int, MClass>> subject_model_;
};

std::unique_ptr<Workload> MakeHotInvoke();
std::unique_ptr<Workload> MakePolicyChurn();
std::unique_ptr<Workload> MakeExtensionChurn();

}  // namespace xsec::e2e

#endif  // XSEC_E2EBENCH_SRC_WORKLOAD_H_
