// Model-checker-lite: systematic interleaving + fault-placement exploration
// over the deterministic sim.
//
// The chaos engine (PR 4) samples the fault space one seeded trajectory at a
// time; this driver enumerates it. At every choice point the Explorer either
// fires one of the events eligible now (EventQueue::eligible / step_event)
// or interposes a fault action from a bounded FaultBudget, runs the branch
// to quiescence, evaluates the world's invariant predicates, records the
// end-state fingerprint, and backtracks by re-executing the world from its
// seed plus the choice prefix — the sim's bit-identical replay makes
// stateless search cheap, exactly the trick SimGrid's checkers rely on.
//
// Reduction: sleep sets keyed on event independence. Two events are
// independent iff both carry non-empty labels (the host the event acts on)
// and the labels differ — different hosts commute as long as the fixture
// draws no value-relevant shared randomness (loss = jitter = 0; see
// DESIGN.md §14 for why that makes host-disjointness a valid independence
// relation here). Unlabelled events and fault actions are conservatively
// dependent with everything. Sleep sets preserve every Mazurkiewicz trace,
// so any violation reachable under the bounds is still found.
//
// On violation the Explorer emits a minimized Repro — the sparse list of
// non-default choices (default = fire the FIFO head) — and verifies it
// replays deterministically before reporting it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "sim/event_queue.hpp"

namespace ew::sim::mc {

/// One fault the Explorer may interpose before an event fires. Closures
/// capture the world instance, so the menu is rebuilt per branch.
struct FaultAction {
  std::string name;
  std::function<void()> apply;
};

/// A world under exploration: a small deterministic fixture (3-5 simulated
/// hosts running one protocol) rebuilt from its seed for every branch.
class World {
 public:
  virtual ~World() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual EventQueue& events() = 0;
  /// Deterministic FIFO pre-roll (binds, registrations, handshakes) before
  /// exploration starts choosing. Runs identically on every branch.
  virtual void warmup() {}
  /// The bounded fault menu. Options::max_faults caps how many of these
  /// one branch may apply; each action fires at most once per branch, in
  /// menu order (a restart is only offered after its crash, etc. — worlds
  /// encode ordering by construction, the Explorer enforces at-most-once).
  virtual std::vector<FaultAction> fault_actions() { return {}; }
  /// Run the world FIFO past the exploration window so liveness-style
  /// predicates (re-election, store convergence) get their grace period.
  virtual void settle() {}
  /// Invariant predicates, evaluated once per branch after settle().
  /// Each string is one violated predicate; empty = branch clean.
  virtual std::vector<std::string> check() = 0;
  /// Deterministic end-state fingerprint (distinct-outcome accounting).
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;
};

using WorldFactory = std::function<std::unique_ptr<World>()>;

/// One resolved decision at a choice point.
struct Choice {
  enum class Kind : std::uint8_t { kEvent = 0, kFault = 1 };
  Kind kind = Kind::kEvent;
  std::uint32_t index = 0;  // eligible-event index or fault-action index

  /// The replay default: fire the FIFO head (what plain step() does).
  [[nodiscard]] bool is_default() const {
    return kind == Kind::kEvent && index == 0;
  }
  bool operator==(const Choice&) const = default;
};

/// A deterministic repro: the non-default choices of one branch, sparse by
/// step index. Replay fills "fire eligible()[0]" at every unlisted step;
/// the world's own seed supplies everything else.
struct Repro {
  std::string world;
  std::vector<std::pair<std::uint32_t, Choice>> choices;

  /// "world=sched steps: 3:ev[1] 7:fault[0]" — paste-into-a-test format.
  [[nodiscard]] std::string to_string() const;
};

struct Options {
  std::uint32_t max_steps = 40;  // choice-point depth bound per branch
  std::uint32_t max_faults = 1;  // FaultBudget: fault choices per branch
  /// Only choose among events within this much sim time past warmup
  /// (0 = unbounded). Needed because periodic server timers never quiesce.
  Duration window = 0;
  bool reduce = true;  // sleep-set (DPOR-style) pruning
  bool stop_at_first_violation = false;
};

struct Violation {
  std::vector<std::string> messages;
  Repro repro;                  // minimized
  std::uint32_t raw_steps = 0;  // branch depth before minimization
  bool replay_deterministic = false;  // two replays agreed exactly
};

struct Report {
  std::uint64_t branches = 0;  // complete branches executed
  std::uint64_t runs = 0;      // world re-executions (prefix replays incl.)
  std::uint64_t choice_points = 0;
  std::uint64_t branching_points = 0;  // choice points with >= 2 options
  std::uint64_t sleep_pruned = 0;      // subtrees skipped by the sleep set
  std::size_t max_eligible = 0;        // widest event menu seen
  bool branch_cap_hit = false;
  std::set<std::uint64_t> fingerprints;  // distinct end states
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const {
    return violations.empty() && !branch_cap_hit;
  }
};

class Explorer {
 public:
  Explorer(WorldFactory factory, Options opts)
      : factory_(std::move(factory)), opts_(opts) {}

  /// Systematically explore interleavings + fault placements within the
  /// bounds. Stateless: every branch re-executes the world from its seed.
  Report explore();

  /// Re-execute the branch `repro` names and return its violations (empty
  /// = clean). Bit-identical replay: same repro, same result, every time.
  std::vector<std::string> replay(const Repro& repro);

 private:
  struct ExecResult {
    bool terminal = false;
    bool prefix_ok = true;  // false: a path choice no longer applies
    std::uint32_t depth = 0;
    // Frontier menu (when !terminal): eligible events + available faults.
    std::vector<EventQueue::EligibleEvent> menu;
    std::vector<std::uint32_t> fault_menu;
    // Branch outcome (when terminal).
    std::vector<std::string> violations;
    std::uint64_t fingerprint = 0;
  };
  using Path = std::vector<Choice>;
  using Sleep = std::vector<std::pair<TimerId, std::string>>;

  /// Rebuild the world, apply `path`, and either stop at the frontier
  /// (run_to_end = false: report the menu at depth path.size()) or keep
  /// taking default choices until the branch terminates.
  ExecResult execute(const Path& path, bool run_to_end);

  void dfs(Path& path, const Sleep& sleep, Report& rep);
  void record_violation(const Path& path, const ExecResult& r, Report& rep);
  Repro minimize(const Path& path, std::uint64_t* extra_runs);

  WorldFactory factory_;
  Options opts_;
};

}  // namespace ew::sim::mc
