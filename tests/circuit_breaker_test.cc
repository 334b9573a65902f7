// The one circuit breaker (src/base/circuit_breaker.h, MODEL.md §12/§16).
//
// CircuitBreakerTest drives the bare breaker with an explicit clock, then
// runs one table of cases through the breaker and through both of its
// users, the audit pipeline's ResilientSink and the ExtensionSupervisor, so
// the two cannot drift apart again. No test here sleeps: a dwell is either
// 1 ns (past by the next call) or an hour (never past).
//
// BreakerHammerTest races the supervisor's breaker under concurrency:
// worker threads race Admit/Complete and Selectable against operator
// Quarantine/Release on one supervised entry while a failpoint toggles the
// extension between failing and healthy. Run it under TSan:
// ctest -R Breaker.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/circuit_breaker.h"
#include "src/base/failpoint.h"
#include "src/core/secure_system.h"
#include "src/extsys/supervisor.h"
#include "src/monitor/audit.h"

namespace xsec {
namespace {

using State = CircuitBreaker::State;
using Admission = CircuitBreaker::Admission;
using Transition = CircuitBreaker::Transition;

// -- The bare breaker, explicit clock ----------------------------------------

TEST(CircuitBreakerTest, DwellRunsFromTheOpeningAndRestartsAfterAFailedProbe) {
  const BreakerOptions options{/*trip_after=*/1, /*probe_after_ns=*/100};
  CircuitBreaker breaker;
  ASSERT_EQ(breaker.Admit(options, 0), Admission::kAdmitted);
  EXPECT_EQ(breaker.RecordFailure(options, false, 1000), Transition::kTripped);
  EXPECT_FALSE(breaker.Admits(options, 1099));
  EXPECT_EQ(breaker.Admit(options, 1099), Admission::kRejected);
  EXPECT_TRUE(breaker.Admits(options, 1100));
  EXPECT_EQ(breaker.Admit(options, 1100), Admission::kProbe);
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_EQ(breaker.Admit(options, 5000), Admission::kRejected);  // one probe at a time
  EXPECT_EQ(breaker.RecordFailure(options, true, 1150), Transition::kReopened);
  EXPECT_EQ(breaker.Admit(options, 1249), Admission::kRejected);
  EXPECT_EQ(breaker.Admit(options, 1250), Admission::kProbe);
  EXPECT_EQ(breaker.RecordSuccess(true), Transition::kRecovered);
  EXPECT_TRUE(breaker.closed());
}

TEST(CircuitBreakerTest, OnlyTheProbesOwnReportFreesItsSlot) {
  const BreakerOptions options{/*trip_after=*/1, /*probe_after_ns=*/10};
  CircuitBreaker breaker;
  breaker.RecordFailure(options, false, 0);
  ASSERT_EQ(breaker.Admit(options, 10), Admission::kProbe);
  // The operator closes the breaker while the probe is out, and a failure
  // trips it again before the probe reports.
  EXPECT_EQ(breaker.Reset(), State::kHalfOpen);
  EXPECT_EQ(breaker.RecordFailure(options, false, 20), Transition::kTripped);
  EXPECT_EQ(breaker.Admit(options, 100), Admission::kRejected);
  // The late probe neither closes nor reopens the breaker it did not open.
  EXPECT_EQ(breaker.RecordSuccess(true), Transition::kNone);
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.Admit(options, 101), Admission::kProbe);
}

TEST(CircuitBreakerTest, OperatorActionsReportTheStateTheyFound) {
  const BreakerOptions options{/*trip_after=*/0, /*probe_after_ns=*/10};
  CircuitBreaker breaker;
  EXPECT_EQ(breaker.Reset(), State::kClosed);
  EXPECT_EQ(breaker.ForceOpen(100), State::kClosed);
  EXPECT_EQ(breaker.ForceOpen(105), State::kOpen);  // the dwell keeps running from 100
  EXPECT_TRUE(breaker.Admits(options, 110));
  EXPECT_EQ(breaker.Admit(options, 110), Admission::kProbe);
  EXPECT_EQ(breaker.ForceOpen(111), State::kHalfOpen);
  EXPECT_EQ(breaker.Reset(), State::kOpen);
  EXPECT_TRUE(breaker.closed());
  EXPECT_EQ(CircuitBreaker::StateName(State::kHalfOpen), "half-open");
}

// -- One table, three users --------------------------------------------------

constexpr uint64_t kShortDwell = 1;                      // past by the next call
constexpr uint64_t kLongDwell = 3'600'000'000'000ull;    // an hour: never past

struct Step {
  bool ok;      // the call's outcome, if it runs
  bool runs;    // whether the breaker lets it through
  State after;  // the state once it has reported
  // While this call is out, the breaker is half-open and refuses another.
  bool lone_probe = false;
};

struct BreakerCase {
  const char* name;
  BreakerOptions options;
  std::vector<Step> steps;
};

constexpr bool kOk = true;
constexpr bool kFail = false;

const std::vector<BreakerCase>& Cases() {
  static const std::vector<BreakerCase> cases = {
      {"trip after consecutive failures",
       {3, kLongDwell},
       {{kFail, true, State::kClosed},
        {kFail, true, State::kClosed},
        {kOk, true, State::kClosed},  // a success restarts the count
        {kFail, true, State::kClosed},
        {kFail, true, State::kClosed},
        {kFail, true, State::kOpen}}},
      {"reject while open",
       {1, kLongDwell},
       {{kFail, true, State::kOpen},
        {kOk, false, State::kOpen},
        {kFail, false, State::kOpen}}},
      {"a single probe",
       {1, kShortDwell},
       {{kFail, true, State::kOpen}, {kOk, true, State::kClosed, /*lone_probe=*/true}}},
      {"probe success closes and restarts the count",
       {2, kShortDwell},
       {{kFail, true, State::kClosed},
        {kFail, true, State::kOpen},
        {kOk, true, State::kClosed, true},
        {kFail, true, State::kClosed},
        {kFail, true, State::kOpen}}},
      {"probe failure reopens",
       {1, kShortDwell},
       {{kFail, true, State::kOpen},
        {kFail, true, State::kOpen, true},
        {kOk, true, State::kClosed, true}}},
      {"trip_after = 0 never trips",
       {0, kShortDwell},
       {{kFail, true, State::kClosed},
        {kFail, true, State::kClosed},
        {kFail, true, State::kClosed},
        {kFail, true, State::kClosed}}},
      {"probe_after_ns = 0 never probes",
       {1, 0},
       {{kFail, true, State::kOpen},
        {kOk, false, State::kOpen},
        {kOk, false, State::kOpen}}},
  };
  return cases;
}

// One way of driving a breaker: the bare class, the sink, or the supervisor.
class BreakerUser {
 public:
  virtual ~BreakerUser() = default;
  // Makes one call with outcome `ok`, running `during` while it is out.
  // Returns whether the call reached the wrapped code.
  virtual bool Call(bool ok, const std::function<void()>& during) = 0;
  virtual State state() = 0;
  // Whether a second call made now is refused without running.
  virtual bool SecondCallRefused() = 0;
};

class BareUser : public BreakerUser {
 public:
  explicit BareUser(BreakerOptions options) : options_(options) {}

  bool Call(bool ok, const std::function<void()>& during) override {
    now_ += 1000;
    Admission admission = breaker_.Admit(options_, now_);
    if (admission == Admission::kRejected) {
      return false;
    }
    const bool probe = admission == Admission::kProbe;
    during();
    if (ok) {
      breaker_.RecordSuccess(probe);
    } else {
      breaker_.RecordFailure(options_, probe, now_);
    }
    return true;
  }
  State state() override { return breaker_.state(); }
  bool SecondCallRefused() override { return !breaker_.Admits(options_, now_ + 1000); }

 private:
  BreakerOptions options_;
  CircuitBreaker breaker_;
  uint64_t now_ = 0;
};

class SinkUser : public BreakerUser {
 public:
  explicit SinkUser(BreakerOptions breaker) {
    ResilientSinkOptions options;
    static_cast<BreakerOptions&>(options) = breaker;
    options.max_attempts = 1;  // one call, one attempt, as in the supervisor
    sink_ = std::make_unique<ResilientSink>(
        [this](const AuditRecord&) -> Status {
          ++inner_calls_;
          if (during_ != nullptr) {
            const std::function<void()>* during = during_;
            during_ = nullptr;  // a nested write that gets through must not recurse
            (*during)();
          }
          return ok_ ? OkStatus() : InternalError("sink down");
        },
        options);
  }

  bool Call(bool ok, const std::function<void()>& during) override {
    ok_ = ok;
    during_ = &during;
    uint64_t before = inner_calls_;
    sink_->Write(AuditRecord{});
    during_ = nullptr;
    return inner_calls_ != before;
  }
  State state() override { return sink_->state(); }
  // Called from inside the inner sink, so this Write is the second call.
  bool SecondCallRefused() override {
    uint64_t before = inner_calls_;
    sink_->Write(AuditRecord{});
    return inner_calls_ == before;
  }

 private:
  std::unique_ptr<ResilientSink> sink_;
  bool ok_ = true;
  const std::function<void()>* during_ = nullptr;
  uint64_t inner_calls_ = 0;
};

class SupervisorUser : public BreakerUser {
 public:
  explicit SupervisorUser(BreakerOptions breaker) {
    supervisor_ = *sys_.EnableSupervision();
    ExtensionBudget budget;
    static_cast<BreakerOptions&>(budget) = breaker;
    NodeId node = *sys_.name_space().BindPath("/svc/breaker/case", NodeKind::kObject,
                                              sys_.system_principal());
    supervisor_->Register("case", node, budget);
  }

  bool Call(bool ok, const std::function<void()>& during) override {
    auto permit = supervisor_->Admit("case", 0);
    if (!permit.ok()) {
      EXPECT_EQ(permit.status().code(), StatusCode::kUnavailable);
      return false;
    }
    during();
    permit->Complete(ok ? OkStatus() : InternalError("extension fault"));
    return true;
  }
  State state() override { return static_cast<State>(supervisor_->Snapshot("case")->state); }
  bool SecondCallRefused() override {
    if (supervisor_->Selectable("case")) {
      return false;
    }
    auto second = supervisor_->Admit("case", 0);
    if (second.ok()) {
      second->Complete(OkStatus());
      return false;
    }
    return second.status().message() == "extension 'case' is quarantined (probe in flight)";
  }

 private:
  SecureSystem sys_;
  ExtensionSupervisor* supervisor_ = nullptr;
};

void RunCases(const std::function<std::unique_ptr<BreakerUser>(BreakerOptions)>& make) {
  for (const BreakerCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<BreakerUser> user = make(c.options);
    for (size_t i = 0; i < c.steps.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "step " << i);
      const Step& step = c.steps[i];
      bool probe_checked = false;
      bool ran = user->Call(step.ok, [&] {
        if (step.lone_probe) {
          EXPECT_EQ(user->state(), State::kHalfOpen);
          EXPECT_TRUE(user->SecondCallRefused());
          probe_checked = true;
        }
      });
      EXPECT_EQ(ran, step.runs);
      EXPECT_EQ(probe_checked, step.lone_probe);
      EXPECT_EQ(user->state(), step.after);
    }
  }
}

TEST(CircuitBreakerTest, TableThroughTheBareBreaker) {
  RunCases([](BreakerOptions options) { return std::make_unique<BareUser>(options); });
}

TEST(CircuitBreakerTest, TableThroughTheResilientSink) {
  RunCases([](BreakerOptions options) { return std::make_unique<SinkUser>(options); });
}

TEST(CircuitBreakerTest, TableThroughTheExtensionSupervisor) {
  RunCases([](BreakerOptions options) { return std::make_unique<SupervisorUser>(options); });
}

// -- The supervisor's breaker under concurrency -------------------------------

class BreakerHammerTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(BreakerHammerTest, OneProbeAtATimeAndQuarantineCountMatchesStates) {
  SecureSystem sys;
  auto enabled = sys.EnableSupervision();
  ASSERT_TRUE(enabled.ok()) << enabled.status().ToString();
  ExtensionSupervisor* supervisor = *enabled;

  // Trips after two failures and half-opens after a microsecond, so the
  // workers cycle through trip, probe and recovery many times.
  ExtensionBudget budget;
  budget.trip_after = 2;
  budget.probe_after_ns = 1'000;
  NodeId hammered = *sys.name_space().BindPath("/svc/hammer/target", NodeKind::kObject,
                                               sys.system_principal());
  NodeId bystander = *sys.name_space().BindPath("/svc/hammer/bystander", NodeKind::kObject,
                                                sys.system_principal());
  supervisor->Register("hammered", hammered, budget);
  supervisor->Register("bystander", bystander, budget);

  constexpr int kWorkers = 3;
  constexpr int kCallsPerWorker = 4000;
  std::atomic<int> workers_left{kWorkers};
  std::atomic<int> probes_in_flight{0};
  std::atomic<int> max_probes_in_flight{0};
  std::atomic<uint64_t> probes{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerWorker; ++i) {
        auto permit = supervisor->Admit("hammered", 0);
        if (!permit.ok()) {
          continue;
        }
        const bool probe = permit->probe();
        if (probe) {
          probes.fetch_add(1, std::memory_order_relaxed);
          int now = probes_in_flight.fetch_add(1) + 1;
          int seen = max_probes_in_flight.load();
          while (now > seen && !max_probes_in_flight.compare_exchange_weak(seen, now)) {
          }
        }
        Failpoint* fault = permit->fault();
        Status status = fault != nullptr && fault->armed() ? fault->Evaluate() : OkStatus();
        std::this_thread::yield();
        // Leave the probe count before reporting: the report is what lets
        // the next probe in.
        if (probe) {
          probes_in_flight.fetch_sub(1);
        }
        permit->Complete(status);
      }
      workers_left.fetch_sub(1);
    });
  }
  // Dispatcher-side eligibility checks.
  threads.emplace_back([&] {
    while (workers_left.load() > 0) {
      (void)supervisor->Selectable("hammered");
      (void)supervisor->Selectable("bystander");
    }
  });
  // The operator forcing and releasing quarantines on both entries.
  threads.emplace_back([&] {
    for (uint64_t round = 0; workers_left.load() > 0; ++round) {
      const char* name = round % 3 == 0 ? "bystander" : "hammered";
      if (round % 2 == 0) {
        (void)supervisor->Quarantine(name, "hammer");
      } else {
        (void)supervisor->Release(name, "hammer");
      }
      std::this_thread::yield();
    }
  });
  // The extension flapping between failing and healthy.
  threads.emplace_back([&] {
    for (uint64_t round = 0; workers_left.load() > 0; ++round) {
      if (round % 2 == 0) {
        (void)FailpointRegistry::Instance().Arm("ext.invoke.hammered", "error");
      } else {
        (void)FailpointRegistry::Instance().Arm("ext.invoke.hammered", "off");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_LE(max_probes_in_flight.load(), 1);
  EXPECT_GT(probes.load(), 0u);
  size_t unhealthy = 0;
  for (const ExtensionSupervisor::ExtSnapshot& snap : supervisor->SnapshotAll()) {
    EXPECT_EQ(snap.inflight, 0u) << snap.name;
    if (snap.state != ExtHealth::kHealthy) {
      ++unhealthy;
    }
  }
  EXPECT_EQ(supervisor->quarantined_count(), unhealthy);
  auto snap = supervisor->Snapshot("hammered");
  ASSERT_TRUE(snap.has_value());
  EXPECT_GT(snap->trips, 0u);
}

}  // namespace
}  // namespace xsec
