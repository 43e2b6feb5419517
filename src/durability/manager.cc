#include "durability/manager.h"

#include <algorithm>

#include "common/logging.h"
#include "durability/fs_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nous {

namespace {

Counter* WalRecords() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_wal_records_total", "WAL records appended");
  return c;
}
Counter* WalBytes() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_wal_bytes_total", "WAL payload bytes appended");
  return c;
}
Counter* WalAppendFailures() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_wal_append_failures_total",
      "WAL appends that failed (batch not acknowledged)");
  return c;
}
Counter* Checkpoints() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_checkpoint_total", "Checkpoints written");
  return c;
}
Counter* CheckpointFailures() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_checkpoint_failures_total", "Checkpoint writes that failed");
  return c;
}
LatencyHistogram* GroupCommitSize() {
  static LatencyHistogram* h = MetricsRegistry::Global().GetHistogram(
      "nous_wal_group_commit_size",
      "WAL seqs each group-commit sync made durable",
      {1, 2, 4, 8, 16, 32, 64, 128});
  return h;
}
Counter* RecoveryDropped() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_recovery_dropped_records_total",
      "Torn/corrupt WAL tail records dropped during recovery");
  return c;
}
}  // namespace

DurabilityManager::DurabilityManager(DurabilityOptions options,
                                     DurableHook on_durable)
    : options_(std::move(options)), on_durable_(std::move(on_durable)) {}

DurabilityManager::~DurabilityManager() { Close().ok(); }

std::string DurabilityManager::wal_path() const {
  return options_.dir + "/wal.log";
}

std::string DurabilityManager::checkpoint_path() const {
  return options_.dir + "/checkpoint.nous";
}

Result<DurabilityManager::RecoveredState> DurabilityManager::Recover() {
  NOUS_SPAN("recover");
  NOUS_RETURN_IF_ERROR(EnsureDirectory(options_.dir));
  RecoveredState state;

  if (FileExists(checkpoint_path())) {
    NOUS_ASSIGN_OR_RETURN(state.checkpoint,
                          ReadCheckpointFile(checkpoint_path()));
    state.has_checkpoint = true;
  }

  NOUS_ASSIGN_OR_RETURN(WalReadResult scan, WalReader::ReadAll(wal_path()));
  state.dropped_records = scan.dropped_records;
  state.dropped_bytes = scan.dropped_bytes;
  if (scan.dropped_bytes > 0) {
    NOUS_LOG(Warning) << "WAL recovery dropped " << scan.dropped_records
                      << " torn/corrupt tail record(s), "
                      << scan.dropped_bytes << " byte(s); truncating "
                      << wal_path() << " to " << scan.valid_bytes
                      << " bytes";
    RecoveryDropped()->Increment(
        std::max<uint64_t>(scan.dropped_records, 1));
    if (FileExists(wal_path())) {
      NOUS_RETURN_IF_ERROR(TruncateFile(wal_path(), scan.valid_bytes));
    }
  }

  const uint64_t floor_seq =
      state.has_checkpoint ? state.checkpoint.last_applied_seq : 0;
  for (WalRecord& record : scan.records) {
    // Records at or below the checkpoint seq survive a crash between
    // checkpoint rename and WAL reset; they are already applied.
    if (record.seq > floor_seq) state.replay.push_back(std::move(record));
  }
  std::stable_sort(state.replay.begin(), state.replay.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.seq < b.seq;
                   });
  return state;
}

Status DurabilityManager::SyncWal() const {
  if (options_.fsync_policy == FsyncPolicy::kNever) return Status::Ok();
  return wal_.Flush();
}

Status DurabilityManager::OpenWal(uint64_t last_applied_seq,
                                  uint64_t kg_version) {
  NOUS_RETURN_IF_ERROR(EnsureDirectory(options_.dir));
  NOUS_RETURN_IF_ERROR(wal_.Open(wal_path()));
  // Recovery may have replayed records a crashed writer appended but
  // never synced; make them durable before calling them so.
  NOUS_RETURN_IF_ERROR(SyncWal());
  last_logged_seq_ = last_applied_seq;
  batches_since_checkpoint_ = 0;
  MutexLock lock(sync_mutex_);
  applied_seq_ = last_applied_seq;
  applied_version_ = kg_version;
  sync_started_upto_ = last_applied_seq;
  SetDurableLocked(last_applied_seq, kg_version);
  return Status::Ok();
}

Result<uint64_t> DurabilityManager::LogBatch(std::string_view payload) {
  if (!wal_.is_open()) {
    return Status::FailedPrecondition("durability: WAL not open");
  }
  {
    MutexLock lock(sync_mutex_);
    if (!sync_error_.ok()) return sync_error_;
  }
  const uint64_t seq = last_logged_seq_ + 1;
  Status status = wal_.Append(seq, payload);
  if (!status.ok()) {
    WalAppendFailures()->Increment();
    return status;
  }
  last_logged_seq_ = seq;
  ++batches_since_checkpoint_;
  WalRecords()->Increment();
  WalBytes()->Increment(payload.size());
  return seq;
}

void DurabilityManager::MarkApplied(uint64_t seq, uint64_t kg_version) {
  MutexLock lock(sync_mutex_);
  applied_seq_ = seq;
  applied_version_ = kg_version;
  sync_cv_.notify_all();
}

Status DurabilityManager::WaitDurable(uint64_t seq, bool batch_queued) {
  UniqueLock lock(sync_mutex_);
  bool may_defer = batch_queued;
  while (durable_seq_ < seq) {
    if (!sync_error_.ok()) return sync_error_;
    if (applied_seq_ < seq) {
      // Only an InstallCheckpoint rewinding the log gets here.
      return Status::FailedPrecondition(
          "WaitDurable: seq " + std::to_string(seq) +
          " was superseded by an installed checkpoint");
    }
    if (checkpointing_ || sync_started_upto_ >= seq) {
      sync_cv_.wait(lock.std_lock());
      continue;
    }
    if (may_defer && !pending_syncs_.empty() && applied_seq_ == seq) {
      // The device is busy anyway and the next writer is about to
      // commit: wait (once) for its batch, or for an in-flight sync
      // to retire, so that one sync covers both batches.
      may_defer = false;
      sync_cv_.wait(lock.std_lock());
      continue;
    }
    // No sync in flight covers `seq`: run one for every seq applied
    // so far. Writes to the fd before this point are all covered.
    const uint64_t ticket = first_pending_ticket_ + pending_syncs_.size();
    PendingSync& pending = pending_syncs_.emplace_back();
    pending.upto = applied_seq_;
    pending.kg_version = applied_version_;
    sync_started_upto_ = applied_seq_;
    lock.std_lock().unlock();
    Status status = SyncWal();
    lock.std_lock().lock();
    PendingSync& mine = pending_syncs_[ticket - first_pending_ticket_];
    mine.done = true;
    mine.status = std::move(status);
    // Retire in start order: seqs an earlier sync covered are durable
    // only once that sync, not merely a later one, has succeeded.
    while (!pending_syncs_.empty() && pending_syncs_.front().done) {
      const PendingSync& front = pending_syncs_.front();
      if (!front.status.ok()) {
        if (sync_error_.ok()) sync_error_ = front.status;
      } else if (sync_error_.ok() && front.upto > durable_seq_) {
        GroupCommitSize()->Observe(
            static_cast<double>(front.upto - durable_seq_));
        SetDurableLocked(front.upto, front.kg_version);
      }
      pending_syncs_.pop_front();
      ++first_pending_ticket_;
    }
    sync_cv_.notify_all();
  }
  return Status::Ok();
}

void DurabilityManager::SetDurableLocked(uint64_t seq, uint64_t kg_version) {
  durable_seq_ = seq;
  if (on_durable_) on_durable_(seq, kg_version);
}

bool DurabilityManager::ShouldCheckpoint() const {
  return options_.checkpoint_interval_batches > 0 &&
         batches_since_checkpoint_ >= options_.checkpoint_interval_batches;
}

Status DurabilityManager::WriteCheckpoint(
    std::string state, uint64_t kg_version,
    const std::function<void()>& on_persisted) {
  NOUS_SPAN_VAR(span, "checkpoint");
  span.Attr("state_bytes", state.size());
  {
    // The WAL file is about to be closed and replaced: wait out every
    // in-flight sync on it and hold off new ones until it is back.
    UniqueLock lock(sync_mutex_);
    if (!sync_error_.ok()) return sync_error_;
    checkpointing_ = true;
    while (!pending_syncs_.empty()) sync_cv_.wait(lock.std_lock());
  }
  Status status = ResetToCheckpoint(std::move(state), on_persisted);
  MutexLock lock(sync_mutex_);
  checkpointing_ = false;
  if (status.ok()) {
    // The image covers every logged record, so it is the new durable
    // point; no sync is in flight to cover anything past it.
    applied_seq_ = last_logged_seq_;
    applied_version_ = kg_version;
    sync_started_upto_ = last_logged_seq_;
    SetDurableLocked(last_logged_seq_, kg_version);
  }
  sync_cv_.notify_all();
  return status;
}

Status DurabilityManager::ResetToCheckpoint(
    std::string state, const std::function<void()>& on_persisted) {
  CheckpointData data;
  data.last_applied_seq = last_logged_seq_;
  data.state = std::move(state);
  Status status = WriteCheckpointFile(checkpoint_path(), data);
  if (!status.ok()) {
    CheckpointFailures()->Increment();
    return status;
  }
  if (on_persisted) on_persisted();

  // The checkpoint covers every logged record, so the WAL restarts
  // empty. A crash between these steps is safe: stale records carry
  // seq <= last_applied_seq and are skipped on replay.
  const bool was_open = wal_.is_open();
  if (was_open) NOUS_RETURN_IF_ERROR(wal_.Close());
  NOUS_RETURN_IF_ERROR(RemoveFile(wal_path()));
  NOUS_RETURN_IF_ERROR(FsyncParentDir(wal_path()));
  if (was_open) NOUS_RETURN_IF_ERROR(wal_.Open(wal_path()));
  batches_since_checkpoint_ = 0;
  Checkpoints()->Increment();
  return Status::Ok();
}

Status DurabilityManager::InstallCheckpoint(
    uint64_t last_applied_seq, uint64_t kg_version, std::string state,
    const std::function<void()>& on_persisted) {
  last_logged_seq_ = last_applied_seq;
  return WriteCheckpoint(std::move(state), kg_version, on_persisted);
}

Status DurabilityManager::Close() {
  if (!wal_.is_open()) return Status::Ok();
  // The WAL may end in appends nobody waited on yet.
  Status flushed = SyncWal();
  Status closed = wal_.Close();
  return flushed.ok() ? closed : flushed;
}

}  // namespace nous
