#ifndef NOUS_DURABILITY_MANAGER_H_
#define NOUS_DURABILITY_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"

namespace nous {

/// Whether a group-commit sync forces the WAL to stable storage. The
/// commit protocol is the same under both.
enum class FsyncPolicy {
  kAlways,  ///< fsync(2): an acknowledged batch is on stable storage
  kNever,   ///< no fsync, rely on the OS page cache (tests / throwaway
            ///< runs)
};

/// Knobs for crash-safe ingest (Nous::Options::durability).
struct DurabilityOptions {
  /// Directory holding wal.log + checkpoint.nous. Created on demand.
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  /// Logged batches between automatic checkpoints (0 = checkpoint only
  /// when Nous::Checkpoint() is called).
  size_t checkpoint_interval_batches = 0;
};

/// Owns the WAL + checkpoint files of one durable NOUS instance and
/// the sequencing between them. The protocol (DESIGN.md §5.10):
///
///   ingest:     LogBatch(encode(batch))   -- log before apply
///               pipeline.IngestBatch(...) -- apply
///               MarkApplied(seq, version) -- under the ingest mutex
///               WaitDurable(seq)          -- after releasing it
///               ack                        -- only after all of them
///   checkpoint: WriteCheckpoint(pipeline.SaveState(), version)
///               -> atomically replaces checkpoint.nous, then resets
///                  the WAL (records <= last_applied_seq are dead)
///   recovery:   Recover() -> checkpoint payload + WAL records with
///               seq > checkpoint.last_applied_seq, torn tail dropped
///               and the file truncated to its valid prefix.
///
/// Group commit: LogBatch only appends. A writer then waits in
/// WaitDurable, outside the ingest mutex; the first waiter that finds
/// no in-flight sync covering its seq syncs the WAL for every seq
/// applied so far — first waiting once for a writer already queued
/// behind it, when a sync is in flight anyway — so concurrent writers
/// share syncs. The WAL is written in order, so one durable watermark
/// suffices; syncs retire into it in the order they started. A sync
/// error is sticky: it fails every waiter not yet covered and every
/// later LogBatch and checkpoint. The fsync policy decides only
/// whether a sync issues fsync(2) (SyncWal).
///
/// Threading: WaitDurable is internally synchronized. Every other
/// mutating call must be serialized by the caller (Nous holds its
/// ingest mutex, acquired before the pipeline's kg_mutex).
class DurabilityManager {
 public:
  /// Receives the durable point — (seq, KG version) — each time it
  /// moves: a sync covered more seqs, or a checkpoint or OpenWal
  /// re-anchored it. Runs under the manager's sync mutex, so calls
  /// arrive in order; it must only publish (e.g. store atomics), never
  /// call back in.
  using DurableHook = std::function<void(uint64_t seq, uint64_t kg_version)>;

  explicit DurabilityManager(DurabilityOptions options,
                             DurableHook on_durable = nullptr);
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// What a crashed instance left behind.
  struct RecoveredState {
    bool has_checkpoint = false;
    CheckpointData checkpoint;
    /// WAL records to replay, already filtered to
    /// seq > checkpoint.last_applied_seq and in seq order.
    std::vector<WalRecord> replay;
    /// Frames dropped from the torn/corrupt WAL tail.
    uint64_t dropped_records = 0;
    uint64_t dropped_bytes = 0;
  };

  /// Scans checkpoint + WAL, truncates any torn WAL tail to its valid
  /// prefix, and returns what survived. Call before OpenWal. A corrupt
  /// checkpoint is an error (stale-but-intact beats silently wrong);
  /// a torn WAL tail is not (it was never acknowledged).
  Result<RecoveredState> Recover();

  /// Opens the WAL for append; subsequent LogBatch calls are numbered
  /// from `last_applied_seq + 1`. The recovered state — seq
  /// `last_applied_seq` at `kg_version` — is the initial durable point.
  Status OpenWal(uint64_t last_applied_seq, uint64_t kg_version = 0);

  /// Appends one encoded batch (it becomes durable in WaitDurable).
  /// On success returns the batch's sequence number; on failure
  /// nothing was committed and the caller must not acknowledge the
  /// batch.
  Result<uint64_t> LogBatch(std::string_view payload);

  /// Records that the last logged batch, `seq`, is applied and left
  /// the KG at `kg_version`. The pair becomes durable once a sync
  /// covers it.
  void MarkApplied(uint64_t seq, uint64_t kg_version);

  /// Blocks until a sync covering `seq` has returned, running one
  /// itself when none in flight covers it. Call without the ingest
  /// mutex, so concurrent writers share syncs. `batch_queued` says
  /// another writer is already waiting to commit: while a sync is in
  /// flight anyway, the waiter then first gives that batch the chance
  /// to be applied, so one sync covers both.
  Status WaitDurable(uint64_t seq, bool batch_queued = false);

  /// True when checkpoint_interval_batches have been logged since the
  /// last checkpoint.
  bool ShouldCheckpoint() const;

  /// Atomically persists `state` (a KgPipeline::SaveState payload)
  /// covering everything logged so far, at KG version `kg_version`,
  /// then resets the WAL to empty. `on_persisted`, when set, runs
  /// between the two: a WAL tailer that sees the reset can rely on
  /// having heard of the checkpoint first. Waits out in-flight syncs
  /// and holds off new ones meanwhile; on success (last logged seq,
  /// kg_version) is the durable point. Refused after a sync error.
  Status WriteCheckpoint(std::string state, uint64_t kg_version,
                         const std::function<void()>& on_persisted = {});

  /// Installs a checkpoint image received from elsewhere (replication:
  /// a leader's full image covering `last_applied_seq` at
  /// `kg_version`). Re-anchors the local sequence counter and durable
  /// point to the image, persists it, and resets the WAL — after
  /// this, LogBatch numbers from last_applied_seq + 1.
  Status InstallCheckpoint(uint64_t last_applied_seq, uint64_t kg_version,
                           std::string state,
                           const std::function<void()>& on_persisted = {});

  /// Syncs the WAL under the policy, then closes it.
  Status Close();

  uint64_t last_logged_seq() const { return last_logged_seq_; }
  std::string wal_path() const;
  std::string checkpoint_path() const;
  const DurabilityOptions& options() const { return options_; }

 private:
  /// One WAL sync: fsync(2) under kAlways, nothing under kNever. Const
  /// and fd-only, so WaitDurable runs it outside sync_mutex_.
  Status SyncWal() const;
  /// WriteCheckpoint's file work: persist the image, reset the WAL.
  Status ResetToCheckpoint(std::string state,
                           const std::function<void()>& on_persisted);
  /// Moves the durable point to (seq, kg_version) and tells the hook.
  void SetDurableLocked(uint64_t seq, uint64_t kg_version)
      REQUIRES(sync_mutex_);

  DurabilityOptions options_;
  DurableHook on_durable_;
  /// Appended under the caller's serialization; a waiter also calls
  /// SyncWal() (const, fd only) concurrently. Open/Close happen only
  /// with no sync in flight (checkpointing_).
  WalWriter wal_;
  uint64_t last_logged_seq_ = 0;
  uint64_t batches_since_checkpoint_ = 0;

  /// Group-commit state.
  AnnotatedMutex sync_mutex_;
  std::condition_variable sync_cv_;
  /// Last (seq, version) marked applied: what the next sync covers.
  uint64_t applied_seq_ GUARDED_BY(sync_mutex_) = 0;
  uint64_t applied_version_ GUARDED_BY(sync_mutex_) = 0;
  /// The durable point: a returned sync covered every seq <=
  /// durable_seq_ (under kAlways, it is on stable storage).
  uint64_t durable_seq_ GUARDED_BY(sync_mutex_) = 0;
  /// Highest seq any sync started to cover. A seq in
  /// (durable_seq_, sync_started_upto_] has a covering sync pending.
  uint64_t sync_started_upto_ GUARDED_BY(sync_mutex_) = 0;
  /// One started sync and the durable point it would set.
  struct PendingSync {
    uint64_t upto = 0;
    uint64_t kg_version = 0;
    bool done = false;
    Status status;
  };
  /// Started syncs in start order. Each retires only after every
  /// earlier one, so a later sync never vouches for seqs an earlier,
  /// failed one covered.
  std::deque<PendingSync> pending_syncs_ GUARDED_BY(sync_mutex_);
  /// Ticket (start number) of pending_syncs_.front().
  uint64_t first_pending_ticket_ GUARDED_BY(sync_mutex_) = 0;
  /// True while a checkpoint resets the WAL; no sync may start.
  bool checkpointing_ GUARDED_BY(sync_mutex_) = false;
  /// First sync failure; sticky.
  Status sync_error_ GUARDED_BY(sync_mutex_);
};

}  // namespace nous

#endif  // NOUS_DURABILITY_MANAGER_H_
