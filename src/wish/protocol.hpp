// WISH wire surface: the interactive wide-area shell's message types.
//
// The WISH workload (ROADMAP: "a WISH-style interactive wide-area shell",
// grounded in jcnelson/wish's libwish packets and MPICH-G2-style collectives)
// is the first toolkit subsystem whose calls are short-lived and bursty —
// spawn/poll/signal/reap job control, global environment variables, and
// barrier / leader-once / scatter-gather synchronization fan-outs — the
// opposite traffic shape from the long-running Ramsey clients.
//
// Every message carries the shared versioned envelope (u8 wire version + u16
// kind), and every list decodes through read_list, whose count guard checks
// the remaining bytes before any vector is sized, so a truncated or hostile
// frame can never drive an allocation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/serialize.hpp"
#include "gossip/protocol.hpp"
#include "net/endpoint.hpp"

namespace ew::wish {

/// Version in every WISH message's envelope (common/serialize.hpp). Bump on
/// incompatible changes; readers accept [1, kWishWireVersion].
constexpr std::uint8_t kWishWireVersion = 1;

/// Ceiling on every list count in the WISH protocol (jobs per spawn batch,
/// ids per poll, endpoints per scatter subtree, env entries per blob).
constexpr std::uint32_t kMaxWishBatch = 65'536;

// The 0x04xx block is WISH's (gossip owns 0x01xx, core services 0x02xx,
// state types 0x03xx).
namespace msgtype {
constexpr MsgType kJobSpawn = 0x0401;       // SpawnRequest -> SpawnReply
constexpr MsgType kJobPoll = 0x0402;        // PollRequest -> PollReply
constexpr MsgType kJobSignal = 0x0403;      // SignalRequest -> SignalReply
constexpr MsgType kJobReap = 0x0404;        // ReapRequest -> ReapReply
constexpr MsgType kEnvSet = 0x0405;         // EnvSetRequest -> EnvSetReply
constexpr MsgType kEnvGet = 0x0406;         // EnvGetRequest -> EnvGetReply
constexpr MsgType kBarrierEnter = 0x0407;   // BarrierEnter -> BarrierEnterReply
constexpr MsgType kBarrierRelease = 0x0408; // BarrierRelease -> ok()
constexpr MsgType kLeaderClaim = 0x0409;    // LeaderClaim -> LeaderReply
constexpr MsgType kScatter = 0x040a;        // ScatterRequest -> ScatterReply
}  // namespace msgtype

namespace statetype {
/// The global environment blob synchronized through the gossip StateStore
/// (one blob type for the whole grid; 0x03xx is the shared state block —
/// core::statetype owns 0x0301/0x0302).
constexpr MsgType kWishEnv = 0x0303;
}  // namespace statetype

// --- Job table ---------------------------------------------------------------

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kExited = 2,
  kKilled = 3,
  kLost = 4,  // the daemon restarted and has no record of the id
};
constexpr std::uint8_t kJobStateCount = 5;
[[nodiscard]] inline bool job_state_terminal(JobState s) {
  return s == JobState::kExited || s == JobState::kKilled || s == JobState::kLost;
}

/// One simulated job: a command string and how long it runs on the host.
struct JobSpec {
  std::string command;
  Duration runtime = kSecond;

  static constexpr std::size_t kMinWire = 4 + 8;  // empty str + i64 runtime
  void write(Writer& w) const;
  static Result<JobSpec> read(Reader& r);
};

/// Spawn a batch of jobs on the target daemon.
struct SpawnRequest {
  Endpoint owner;  // the submitting client, for the job record
  std::vector<JobSpec> jobs;

  [[nodiscard]] Bytes serialize() const;
  static Result<SpawnRequest> deserialize(const Bytes& data);
};

struct SpawnReply {
  std::uint64_t incarnation = 0;  // the daemon's, so owners spot restarts
  std::vector<std::uint64_t> ids;

  [[nodiscard]] Bytes serialize() const;
  static Result<SpawnReply> deserialize(const Bytes& data);
};

struct PollRequest {
  std::vector<std::uint64_t> ids;

  [[nodiscard]] Bytes serialize() const;
  static Result<PollRequest> deserialize(const Bytes& data);
};

struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kLost;
  std::int64_t exit_code = 0;

  static constexpr std::size_t kMinWire = 8 + 1 + 8;
  void write(Writer& w) const;
  static Result<JobStatus> read(Reader& r);
};

struct PollReply {
  std::uint64_t incarnation = 0;
  std::vector<JobStatus> jobs;  // one per requested id, in request order

  [[nodiscard]] Bytes serialize() const;
  static Result<PollReply> deserialize(const Bytes& data);
};

struct SignalRequest {
  std::uint64_t id = 0;
  std::uint8_t signum = 9;  // only kill is modeled

  [[nodiscard]] Bytes serialize() const;
  static Result<SignalRequest> deserialize(const Bytes& data);
};

struct SignalReply {
  JobState state = JobState::kLost;  // the job's state after the signal

  [[nodiscard]] Bytes serialize() const;
  static Result<SignalReply> deserialize(const Bytes& data);
};

struct ReapRequest {
  std::vector<std::uint64_t> ids;

  [[nodiscard]] Bytes serialize() const;
  static Result<ReapRequest> deserialize(const Bytes& data);
};

struct ReapReply {
  std::uint32_t reaped = 0;  // terminal jobs actually removed

  [[nodiscard]] Bytes serialize() const;
  static Result<ReapReply> deserialize(const Bytes& data);
};

// --- Global environment ------------------------------------------------------

struct EnvSetRequest {
  std::string key;
  std::string value;

  [[nodiscard]] Bytes serialize() const;
  static Result<EnvSetRequest> deserialize(const Bytes& data);
};

struct EnvSetReply {
  std::uint64_t version = 0;  // the entry's per-key version after the write

  [[nodiscard]] Bytes serialize() const;
  static Result<EnvSetReply> deserialize(const Bytes& data);
};

struct EnvGetRequest {
  std::string key;

  [[nodiscard]] Bytes serialize() const;
  static Result<EnvGetRequest> deserialize(const Bytes& data);
};

struct EnvGetReply {
  bool found = false;
  std::string value;
  std::uint64_t version = 0;

  [[nodiscard]] Bytes serialize() const;
  static Result<EnvGetReply> deserialize(const Bytes& data);
};

// --- Synchronization primitives ----------------------------------------------

/// A participant announces itself at the barrier's coordinator. Re-sent
/// periodically until the coordinator *replies* released=true, which makes
/// the protocol survive a coordinator crash-restart: the restarted
/// coordinator rebuilds its arrival set from the re-enters (participants
/// that saw the release push keep re-entering until the reply confirms it,
/// so the set always re-reaches `expected`).
struct BarrierEnter {
  std::string name;
  std::uint64_t epoch = 0;
  std::uint32_t expected = 0;  // arrivals that complete the barrier
  Endpoint participant;        // where the release push goes
  /// Release-knowledge contagion: true when this participant already saw a
  /// release push for the epoch and is re-entering only for confirmation. A
  /// coordinator that restarted (and so forgot its released floor) restores
  /// it from any such witness — without this, a rebuilt arrival set can
  /// never re-reach `expected` once the already-confirmed participants have
  /// stopped re-entering, and the unconfirmed remainder hangs.
  bool released_seen = false;

  [[nodiscard]] Bytes serialize() const;
  static Result<BarrierEnter> deserialize(const Bytes& data);
};

struct BarrierEnterReply {
  bool released = false;  // this epoch is complete at the coordinator
  std::uint64_t coordinator_incarnation = 0;

  [[nodiscard]] Bytes serialize() const;
  static Result<BarrierEnterReply> deserialize(const Bytes& data);
};

/// Coordinator -> participant push when the barrier completes (a latency
/// optimization over waiting for the next re-enter reply).
struct BarrierRelease {
  std::string name;
  std::uint64_t epoch = 0;

  [[nodiscard]] Bytes serialize() const;
  static Result<BarrierRelease> deserialize(const Bytes& data);
};

/// First claim wins for (name, epoch) at the coordinator. The win is scoped
/// to the coordinator's incarnation: a crash-restart forgets the winner, so
/// callers treating the win as a lock must watch coordinator_incarnation.
struct LeaderClaim {
  std::string name;
  std::uint64_t epoch = 0;
  std::string claimant;

  [[nodiscard]] Bytes serialize() const;
  static Result<LeaderClaim> deserialize(const Bytes& data);
};

struct LeaderReply {
  std::string winner;
  std::uint64_t coordinator_incarnation = 0;

  [[nodiscard]] Bytes serialize() const;
  static Result<LeaderReply> deserialize(const Bytes& data);
};

/// One hop of the MPICH-G2-style k-ary distribution tree. The receiver
/// applies `payload`, splits `subtree` into fan-out slices, forwards one
/// ScatterRequest per slice head, and replies with the gathered subtree
/// acknowledgement (delivered count + order-independent checksum) once its
/// children answer — the gather rides the call replies back up the tree.
struct ScatterRequest {
  std::string name;
  std::uint64_t epoch = 0;
  Bytes payload;
  std::vector<Endpoint> subtree;  // endpoints below the receiver, in order

  [[nodiscard]] Bytes serialize() const;
  static Result<ScatterRequest> deserialize(const Bytes& data);
};

struct ScatterReply {
  std::uint32_t delivered = 0;   // receiver + its whole subtree
  std::uint64_t checksum = 0;    // sum over per-node fold (order-independent)

  [[nodiscard]] Bytes serialize() const;
  static Result<ScatterReply> deserialize(const Bytes& data);
};

/// The per-node contribution to the gather checksum: the payload folded with
/// the applying endpoint, summed (commutatively) up the tree.
[[nodiscard]] std::uint64_t scatter_fold(const Endpoint& self,
                                         const Bytes& payload);

}  // namespace ew::wish
