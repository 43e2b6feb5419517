#ifndef NOUS_REPLICATION_LEADER_H_
#define NOUS_REPLICATION_LEADER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/nous.h"
#include "durability/wal.h"
#include "replication/protocol.h"
#include "replication/socket.h"
#include "replication/telemetry.h"

namespace nous {

/// WAL-shipping leader (DESIGN.md §5.15): accepts follower
/// connections on a loopback port and streams every durable commit to
/// each of them. A session ships from one join position — the (seq,
/// KG version) of the last broadcast before the session was added:
/// the WAL records up to it (catch-up, read once), then the session's
/// queue, which holds every broadcast after it in commit order. A full
/// checkpoint image replaces the WAL part when the follower asked for
/// one, is ahead of the join position, is at the join seq on another
/// KG version, or the WAL no longer reaches the join seq.
///
/// Robustness contract:
///  - Ingest never blocks on a follower. OnCommit/OnCheckpoint only
///    enqueue pre-encoded frames into bounded per-session queues; a
///    queue that fills (slow or wedged follower) is cleared and the
///    session disconnected (overflow_disconnects in the telemetry) —
///    the follower reconnects and catches up under a new join
///    position.
///  - Session threads never touch Nous ingest paths; they read the
///    WAL file, their queue and lock-free atomics only (plus the
///    ingest mutex, briefly, to capture an image).
class ReplicationLeader : public CommitListener, public ReplicationTelemetry {
 public:
  struct Options {
    /// Loopback port to listen on (0 = ephemeral; see port()).
    uint16_t port = 0;
    /// Idle interval after which a session sends a heartbeat.
    int heartbeat_ms = 200;
    /// Max frames queued per follower before it is disconnected.
    size_t queue_capacity = 1024;
    /// Per-socket send/recv deadline.
    int io_timeout_ms = 5000;
  };

  /// `nous` must be durable (Recover() succeeded) and outlive this.
  ReplicationLeader(Nous* nous, Options options);
  ~ReplicationLeader() override;

  ReplicationLeader(const ReplicationLeader&) = delete;
  ReplicationLeader& operator=(const ReplicationLeader&) = delete;

  /// Binds the port, registers the commit hook, starts accepting.
  Status Start();

  /// Unregisters the commit hook, disconnects every follower, joins
  /// all threads. Idempotent; also run by the destructor.
  void Stop();

  uint16_t port() const { return listener_.port(); }

  // CommitListener (called under the Nous ingest mutex — enqueue only).
  void OnCommit(uint64_t seq, const std::string& payload,
                uint64_t kg_version) override;
  void OnCheckpoint(uint64_t seq, const std::string& state,
                    uint64_t kg_version) override;

  // ReplicationTelemetry.
  ReplicationView View() const override;

 private:
  /// One pre-encoded frame waiting in a session queue.
  struct QueueItem {
    ReplFrameType type = ReplFrameType::kWalBatch;
    uint64_t seq = 0;
    uint64_t kg_version = 0;
    std::shared_ptr<const std::string> wire;
  };

  /// (seq, KG version) of a point in the commit stream.
  using Position = Nous::CommitPosition;

  struct Session {
    TcpConn conn;
    std::thread thread;
    /// The leader's position when AcceptLoop added this session; every
    /// later broadcast lands in `queue`. Written before the thread
    /// starts, read-only afterwards.
    Position join;
    AnnotatedMutex mutex;
    std::condition_variable cv;
    std::deque<QueueItem> queue GUARDED_BY(mutex);
    bool stop GUARDED_BY(mutex) = false;
    /// Set when the queue overflowed; the serving loop disconnects.
    bool overflowed GUARDED_BY(mutex) = false;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeFollower(Session* session);
  /// Ships the catch-up (WAL records up to the join position, or an
  /// image), then the queue, until the link or the session ends.
  void Stream(Session* session, const ReplFrame& hello);
  /// Captures and sends a full image, counting it under `cause`;
  /// `*sent` becomes the image's position.
  Status SendImage(Session* session, const char* cause, Position* sent);
  /// The WAL records (from, to], in order, into `*bridge`; false when
  /// the log no longer holds all of them.
  bool ReadBridge(uint64_t from, uint64_t to,
                  std::vector<WalRecord>* bridge) const;
  /// Handshake: stream magic then the Hello frame, under a deadline.
  Status ReadHello(Session* session, ReplFrame* hello);
  /// Sends one data frame (kWalBatch/kCheckpoint), applying the
  /// repl_frame_drop / repl_frame_corrupt fault points. A dropped
  /// frame reports success — that is the point: the leader believes
  /// it sent it, and the follower must detect the gap.
  Status SendDataFrame(Session* session, const std::string& wire);
  /// Moves the join position to `item` and enqueues it on every live
  /// session, disconnecting sessions whose queue is full.
  void Broadcast(QueueItem item);
  void ReapFinishedSessions() REQUIRES(sessions_mutex_);

  Nous* nous_;
  Options options_;
  std::string wal_path_;
  TcpListener listener_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread accept_thread_;

  AnnotatedMutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_
      GUARDED_BY(sessions_mutex_);
  /// The last Broadcast's position, seeded by Start from
  /// SetCommitListener; a new session joins here.
  Position position_ GUARDED_BY(sessions_mutex_);
  /// Whether a Broadcast set `position_` since Start registered the
  /// hook — it is then newer than the seed.
  bool broadcast_since_start_ GUARDED_BY(sessions_mutex_) = false;

  std::atomic<uint64_t> followers_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> checkpoints_sent_{0};
  std::atomic<uint64_t> overflow_disconnects_{0};
};

}  // namespace nous

#endif  // NOUS_REPLICATION_LEADER_H_
