// Persistent state manager (paper Section 3.1.2).
//
// Holds application state that "must survive the loss of all active
// processes". Three paper-faithful properties:
//   * separate service with a bounded, controllable footprint,
//   * intended to run at "trusted" sites (a flag here; placement is the
//     scenario builder's job),
//   * run-time sanity checks on every store: "If a process attempts to
//     store a counter example ... the persistent state manager first checks
//     to make sure the stored object is, indeed, a Ramsey counter example
//     for the given problem size."
//
// Objects are versioned blobs (gossip/state.hpp convention); a store is
// accepted only if it validates and is fresher than the current copy. The
// manager can also expose objects to the Gossip service so replicas at other
// trusted sites converge.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/protocol.hpp"
#include "gossip/state.hpp"
#include "net/node.hpp"

namespace ew::core {

class PersistentStateManager {
 public:
  /// Validates decoded object content (the bytes inside the version
  /// wrapper). Return a non-ok Status to reject the store.
  using Validator = std::function<Status(const std::string& name, const Bytes& body)>;

  struct Options {
    std::size_t max_objects = 10'000;
    /// When non-empty, every accepted object is also written to this
    /// directory (atomically: tmp + rename) and start() reloads whatever is
    /// on disk — the manager genuinely survives "the loss of all active
    /// processes" (Section 3.1.2). Empty keeps the store memory-only
    /// (simulation runs).
    std::string storage_dir;
  };

  explicit PersistentStateManager(Node& node)
      : PersistentStateManager(node, Options{}) {}
  PersistentStateManager(Node& node, Options opts) : node_(node), opts_(opts) {}

  void start();
  void stop();

  /// Register a sanity check for all objects whose name starts with
  /// `name_prefix`. Checks run on every store, local or remote.
  void register_validator(std::string name_prefix, Validator v);

  /// Store locally (same validation path as the network interface).
  Status store(const std::string& name, const Bytes& versioned_blob);
  [[nodiscard]] std::optional<Bytes> fetch(const std::string& name) const;

  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }
  [[nodiscard]] std::uint64_t stores_accepted() const { return accepted_; }
  /// Stores rejected by sanity checks or malformed encoding.
  [[nodiscard]] std::uint64_t stores_rejected() const { return rejected_; }
  /// Stores that validated but were no fresher than the held copy (no-ops).
  [[nodiscard]] std::uint64_t stores_stale() const { return stale_; }
  /// Objects recovered from storage_dir at start().
  [[nodiscard]] std::uint64_t objects_recovered() const { return recovered_; }

  /// The standard validator for "ramsey/best/<n>/<k>" objects: the body must
  /// decode as a ColoredGraph of order n; if it claims to be a
  /// counter-example (version low word flag), it must actually have no
  /// monochromatic K_k. See make_best_graph_blob()/parse_best_graph_name().
  static Validator ramsey_validator();

 private:
  void on_store(const IncomingMessage& msg, const Responder& resp);
  void on_fetch(const IncomingMessage& msg, const Responder& resp);
  Status validate(const std::string& name, const Bytes& body) const;
  void write_through(const std::string& name, const Bytes& blob) const;
  void load_from_disk();

  Node& node_;
  Options opts_;
  bool running_ = false;
  std::map<std::string, Bytes> objects_;  // name -> versioned blob
  std::map<std::string, Validator> validators_;  // prefix -> check
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t recovered_ = 0;
  bool loading_ = false;  // suppress write-through while recovering
};

/// Helpers for the "ramsey/best/<n>/<k>" object family.
/// The object body is: u8 found-flag, blob(serialized graph).
Bytes make_best_graph_body(const Bytes& graph_blob, bool is_counterexample);
struct BestGraphName {
  int n = 0;
  int k = 0;
};
std::optional<BestGraphName> parse_best_graph_name(const std::string& name);
std::string best_graph_name(int n, int k);

}  // namespace ew::core
