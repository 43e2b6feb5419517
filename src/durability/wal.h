#ifndef NOUS_DURABILITY_WAL_H_
#define NOUS_DURABILITY_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace nous {

/// One committed record recovered from the log.
struct WalRecord {
  uint64_t seq = 0;
  std::string payload;
};

/// What WalReader::ReadAll saw, including how much tail it dropped.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// Byte offset of the end of the last intact record — the safe
  /// truncation point before re-opening the log for append.
  uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes that failed framing or CRC checks.
  uint64_t dropped_bytes = 0;
  /// Frames discarded from the tail (0 or 1 under the torn-write
  /// model; >1 only if the file was corrupted mid-stream, in which
  /// case everything after the corruption is dropped too).
  uint64_t dropped_records = 0;
};

/// Append-only, CRC-framed write-ahead log.
///
/// Layout: an 8-byte file magic, then a sequence of frames
///   [u32 frame-magic][u64 seq][u32 payload-len][u32 crc][payload]
/// where crc = CRC-32C(payload, seeded with CRC-32C(seq||len)), so a
/// bit flip anywhere in the header or payload fails verification.
/// Readers stop at the first bad frame and report the dropped tail —
/// a torn final write is data the writer never acknowledged, so
/// dropping it preserves exactly the committed prefix.
///
/// Fault points (see FaultInjector): "wal_append" (kFail: nothing
/// written; kTorn: a prefix of the frame hits the file, then error),
/// "wal_fsync" (kFail), "wal_close" (kTruncate: arg bytes chopped
/// after close — simulates a crash with unsynced page cache).
///
/// Not internally synchronized: NOUS serializes appends under the
/// pipeline's ingest commit lock.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for append, creating it (with the file magic,
  /// fsynced) when absent. An existing file is trusted as-is: recovery
  /// must have already truncated any torn tail (WalReader::ReadAll +
  /// TruncateFile(valid_bytes)).
  Status Open(const std::string& path);

  /// Appends one record; it reaches stable storage only with a later
  /// Flush(). On any error the record is NOT committed — the caller
  /// must not acknowledge the batch, and the file may hold a torn
  /// frame that the next recovery's CRC scan will drop.
  Status Append(uint64_t seq, std::string_view payload);

  /// Forces everything appended so far to stable storage: the writer's
  /// only fsync after Open. Touches no writer state, so it may run on
  /// another thread while Append writes the next frame
  /// (DurabilityManager's group commit). Open/Close must not run
  /// concurrently with it.
  Status Flush() const;

  /// Closes the file without syncing it. Idempotent.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// Reads every intact record of a WAL file. Never fails on torn or
/// corrupt tails — those are reported in the result; only I/O errors
/// or a bad file magic produce an error Status. A missing file reads
/// as an empty log.
class WalReader {
 public:
  static Result<WalReadResult> ReadAll(const std::string& path);
};

/// 8-byte magic at offset 0 of every WAL file.
extern const char kWalFileMagic[8];
/// Per-frame magic word.
constexpr uint32_t kWalFrameMagic = 0x4C41574Eu;  // "NWAL" little-endian

}  // namespace nous

#endif  // NOUS_DURABILITY_WAL_H_
