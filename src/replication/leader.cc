#include "replication/leader.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace nous {

ReplicationLeader::ReplicationLeader(Nous* nous, Options options)
    : nous_(nous),
      options_(std::move(options)),
      wal_path_(nous->options().durability.dir + "/wal.log") {
  if (options_.heartbeat_ms <= 0) options_.heartbeat_ms = 200;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

ReplicationLeader::~ReplicationLeader() { Stop(); }

Status ReplicationLeader::Start() {
  if (started_) {
    return Status::FailedPrecondition("replication leader already started");
  }
  if (!nous_->durable()) {
    return Status::FailedPrecondition(
        "replication leader requires a durable Nous (call Recover first)");
  }
  NOUS_RETURN_IF_ERROR(listener_.Listen(options_.port));
  running_.store(true, std::memory_order_release);
  const Position seed = nous_->SetCommitListener(this);
  {
    MutexLock lock(sessions_mutex_);
    if (!broadcast_since_start_) position_ = seed;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  NOUS_LOG(Info) << "replication leader listening on 127.0.0.1:"
                 << listener_.port();
  return Status::Ok();
}

void ReplicationLeader::Stop() {
  if (!started_) return;
  // Unhook first: SetCommitListener blocks on the ingest mutex, so
  // once it returns no commit thread can touch the session queues.
  nous_->SetCommitListener(nullptr);
  running_.store(false, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  MutexLock lock(sessions_mutex_);
  broadcast_since_start_ = false;
  for (auto& session : sessions_) {
    {
      MutexLock session_lock(session->mutex);
      session->stop = true;
    }
    session->cv.notify_all();
    session->conn.Shutdown();  // wakes a blocked Recv/SendAll
  }
  for (auto& session : sessions_) {
    if (session->thread.joinable()) session->thread.join();
  }
  sessions_.clear();
  started_ = false;
}

void ReplicationLeader::OnCommit(uint64_t seq, const std::string& payload,
                                 uint64_t kg_version) {
  ReplFrame frame;
  frame.type = ReplFrameType::kWalBatch;
  frame.seq = seq;
  frame.aux = kg_version;
  frame.payload = payload;
  QueueItem item;
  item.type = frame.type;
  item.seq = seq;
  item.kg_version = kg_version;
  item.wire = std::make_shared<const std::string>(EncodeReplFrame(frame));
  Broadcast(std::move(item));
}

void ReplicationLeader::OnCheckpoint(uint64_t seq, const std::string& state,
                                     uint64_t kg_version) {
  ReplFrame frame;
  frame.type = ReplFrameType::kCheckpoint;
  frame.seq = seq;
  frame.aux = kg_version;
  frame.payload = state;
  QueueItem item;
  item.type = frame.type;
  item.seq = seq;
  item.kg_version = kg_version;
  item.wire = std::make_shared<const std::string>(EncodeReplFrame(frame));
  Broadcast(std::move(item));
}

void ReplicationLeader::Broadcast(QueueItem item) {
  MutexLock lock(sessions_mutex_);
  position_ = {item.seq, item.kg_version};
  broadcast_since_start_ = true;
  for (auto& session : sessions_) {
    if (session->done.load(std::memory_order_acquire)) continue;
    bool overflowed = false;
    {
      MutexLock session_lock(session->mutex);
      if (session->stop || session->overflowed) continue;
      if (session->queue.size() >= options_.queue_capacity) {
        // Slow follower: shed it rather than stall or grow without
        // bound. It reconnects and catches up under a new join.
        session->queue.clear();
        session->overflowed = true;
        overflowed = true;
      } else {
        session->queue.push_back(item);
      }
    }
    session->cv.notify_all();
    if (overflowed) {
      overflow_disconnects_.fetch_add(1, std::memory_order_relaxed);
      session->conn.Shutdown();
    }
  }
}

void ReplicationLeader::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    Result<TcpConn> conn = listener_.Accept(100);
    if (!conn.ok()) {
      if (running_.load(std::memory_order_acquire)) {
        NOUS_LOG(Warning) << "replication accept failed: "
                          << conn.status().ToString();
      }
      return;
    }
    MutexLock lock(sessions_mutex_);
    ReapFinishedSessions();
    if (!conn->valid() || !running_.load(std::memory_order_acquire)) {
      continue;  // timeout / dropped accept: poll again
    }
    auto session = std::make_unique<Session>();
    session->conn = std::move(*conn);
    session->join = position_;
    Session* raw = session.get();
    session->thread = std::thread([this, raw] { ServeFollower(raw); });
    sessions_.push_back(std::move(session));
  }
}

void ReplicationLeader::ReapFinishedSessions() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Status ReplicationLeader::ReadHello(Session* session, ReplFrame* hello) {
  char buffer[4096];
  std::string preamble;
  ReplFrameParser parser;
  bool magic_checked = false;
  for (;;) {
    NOUS_ASSIGN_OR_RETURN(size_t n,
                          session->conn.Recv(buffer, sizeof(buffer)));
    if (n == 0) {
      return Status::Unavailable("peer closed during replication handshake");
    }
    if (!magic_checked) {
      preamble.append(buffer, n);
      if (preamble.size() < sizeof(kReplStreamMagic)) continue;
      if (std::memcmp(preamble.data(), kReplStreamMagic,
                      sizeof(kReplStreamMagic)) != 0) {
        return Status::InvalidArgument("not a NOUS replication stream");
      }
      magic_checked = true;
      parser.Append(preamble.data() + sizeof(kReplStreamMagic),
                    preamble.size() - sizeof(kReplStreamMagic));
    } else {
      parser.Append(buffer, n);
    }
    ReplFrame frame;
    NOUS_ASSIGN_OR_RETURN(bool have, parser.Next(&frame));
    if (!have) continue;
    if (frame.type != ReplFrameType::kHello) {
      return Status::InvalidArgument(
          "replication handshake: expected Hello frame");
    }
    *hello = std::move(frame);
    return Status::Ok();
  }
}

Status ReplicationLeader::SendDataFrame(Session* session,
                                        const std::string& wire) {
  FaultInjector& faults = FaultInjector::Global();
  if (auto fault = faults.Hit("repl_frame_drop")) {
    if (fault->kind == FaultKind::kFail) {
      // Silently swallow the frame. The leader's cursor still
      // advances — exactly the failure the follower's seq-gap
      // detection exists to catch.
      return Status::Ok();
    }
  }
  if (auto fault = faults.Hit("repl_frame_corrupt")) {
    if (fault->kind == FaultKind::kFail) {
      std::string corrupted = wire;
      corrupted[corrupted.size() / 2] ^= 0x20;
      return session->conn.SendAll(corrupted);
    }
  }
  Status status = session->conn.SendAll(wire);
  if (status.ok()) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(wire.size(), std::memory_order_relaxed);
  }
  return status;
}

void ReplicationLeader::ServeFollower(Session* session) {
  session->conn.SetIoDeadline(options_.io_timeout_ms).ok();
  ReplFrame hello;
  Status handshake = ReadHello(session, &hello);
  if (!handshake.ok()) {
    session->conn.Shutdown();
    session->done.store(true, std::memory_order_release);
    return;
  }
  followers_.fetch_add(1, std::memory_order_relaxed);
  Stream(session, hello);
  followers_.fetch_sub(1, std::memory_order_relaxed);
  session->conn.Shutdown();
  session->done.store(true, std::memory_order_release);
}

void ReplicationLeader::Stream(Session* session, const ReplFrame& hello) {
  // Catch-up brings the follower to the join position from the WAL,
  // which holds every record up to it unless a checkpoint reset them
  // away. A full image replaces the WAL when the follower asks for
  // one, is past the join seq (it outlived a leader that lost unsynced
  // WAL tail in a crash), is at the join seq on another KG version (it
  // missed a version-only transition: a Finalize), or when the log no
  // longer reaches the join seq.
  const Position join = session->join;
  const uint64_t hello_kgv = DecodeHelloKgVersion(hello.payload);
  Position sent{hello.seq, hello_kgv};
  std::vector<WalRecord> bridge;
  const char* image_cause = nullptr;
  if ((hello.aux & kHelloForceImage) != 0) {
    image_cause = "requested";
  } else if (hello.seq > join.seq) {
    image_cause = "ahead";
  } else if (hello.seq == join.seq) {
    if (hello_kgv != 0 && hello_kgv != join.kg_version) {
      image_cause = "version";
    }
  } else if (!ReadBridge(hello.seq, join.seq, &bridge)) {
    image_cause = "unbridged";
  }
  if (image_cause != nullptr) {
    if (!SendImage(session, image_cause, &sent).ok()) return;
  }
  for (WalRecord& rec : bridge) {
    ReplFrame frame;
    frame.type = ReplFrameType::kWalBatch;
    frame.seq = rec.seq;
    // The join-seq record carries the join version, so the follower's
    // DataLoss cross-check catches a base it diverged on (a missed
    // Finalize) before any live frame builds on it. Earlier records'
    // versions are not in the log: 0 = "do not cross-check".
    frame.aux = rec.seq == join.seq ? join.kg_version : 0;
    frame.payload = std::move(rec.payload);
    if (!SendDataFrame(session, EncodeReplFrame(frame)).ok()) return;
  }
  if (!bridge.empty()) sent = join;

  // Live: the queue holds every broadcast after the join position, in
  // commit order. A frame at or behind what this session already
  // shipped is stale — a batch at `sent`, or a checkpoint at `sent`
  // on the KG version the follower already holds (a periodic
  // checkpoint of state it has). A Finalize bumps the version, so its
  // checkpoint still ships.
  for (;;) {
    std::deque<QueueItem> burst;
    {
      UniqueLock lock(session->mutex);
      if (session->queue.empty() && !session->stop && !session->overflowed) {
        session->cv.wait_for(lock.std_lock(),
                             std::chrono::milliseconds(options_.heartbeat_ms));
      }
      if (session->stop || session->overflowed) return;
      burst.swap(session->queue);
    }
    for (const QueueItem& item : burst) {
      const bool stale =
          item.seq < sent.seq ||
          (item.seq == sent.seq && (item.type == ReplFrameType::kWalBatch ||
                                    item.kg_version == sent.kg_version));
      if (stale) continue;
      if (!SendDataFrame(session, *item.wire).ok()) return;
      if (item.type == ReplFrameType::kCheckpoint) {
        checkpoints_sent_.fetch_add(1, std::memory_order_relaxed);
      }
      sent = {item.seq, item.kg_version};
    }
    // A heartbeat follows each drained burst and each idle interval,
    // never a frame still queued: it tells the follower where we are,
    // so it can measure lag and detect a silently broken link.
    {
      MutexLock lock(session->mutex);
      if (!session->queue.empty()) continue;
    }
    ReplFrame heartbeat;
    heartbeat.type = ReplFrameType::kHeartbeat;
    heartbeat.seq = nous_->last_durable_seq();
    heartbeat.aux = nous_->durable_kg_version();
    if (!session->conn.SendAll(EncodeReplFrame(heartbeat)).ok()) return;
  }
}

Status ReplicationLeader::SendImage(Session* session, const char* cause,
                                    Position* sent) {
  NOUS_ASSIGN_OR_RETURN(Nous::ReplicationImage image,
                        nous_->CaptureReplicationImage());
  ReplFrame frame;
  frame.type = ReplFrameType::kCheckpoint;
  frame.seq = image.seq;
  frame.aux = image.kg_version;
  frame.payload = std::move(image.state);
  NOUS_RETURN_IF_ERROR(SendDataFrame(session, EncodeReplFrame(frame)));
  checkpoints_sent_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global()
      .GetCounter("nous_replication_images_total",
                  "Full checkpoint images sent to followers at handshake, "
                  "by cause",
                  {{"cause", cause}})
      ->Increment();
  *sent = {image.seq, image.kg_version};
  return Status::Ok();
}

bool ReplicationLeader::ReadBridge(uint64_t from, uint64_t to,
                                   std::vector<WalRecord>* bridge) const {
  Result<WalReadResult> log = WalReader::ReadAll(wal_path_);
  if (!log.ok()) return false;
  for (WalRecord& rec : log->records) {
    if (rec.seq == from + 1 + bridge->size() && rec.seq <= to) {
      bridge->push_back(std::move(rec));
    }
  }
  return bridge->size() == to - from;
}

ReplicationView ReplicationLeader::View() const {
  ReplicationView view;
  view.role = "leader";
  view.connected = true;
  view.last_seq = nous_->last_durable_seq();
  view.kg_version = nous_->durable_kg_version();
  view.followers = followers_.load(std::memory_order_relaxed);
  view.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  view.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  view.checkpoints_sent =
      checkpoints_sent_.load(std::memory_order_relaxed);
  view.overflow_disconnects =
      overflow_disconnects_.load(std::memory_order_relaxed);
  return view;
}

}  // namespace nous
