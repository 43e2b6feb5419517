#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "durability/fs_util.h"
#include "obs/trace.h"

namespace nous {

const char kWalFileMagic[8] = {'N', 'O', 'U', 'S', 'W', 'A', 'L', '1'};

namespace {

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

/// CRC over the frame: payload chained onto the (seq, len) header
/// words, so header corruption is as detectable as payload corruption.
uint32_t FrameCrc(uint64_t seq, uint32_t len, std::string_view payload) {
  BinaryWriter header;
  header.U64(seq);
  header.U32(len);
  uint32_t crc = Crc32c(header.data());
  return Crc32c(payload.data(), payload.size(), crc);
}

Status WriteAllFd(int fd, const char* data, size_t size,
                  const std::string& path) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

WalWriter::~WalWriter() { Close().ok(); }

Status WalWriter::Open(const std::string& path) {
  if (is_open()) {
    return Status::FailedPrecondition("WAL already open: " + path_);
  }
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) return Status::Internal(Errno("open", path));
  fd_ = fd;
  path_ = path;
  // The file needs the magic if it is new OR empty — recovery truncates
  // a log whose tail tore inside the magic itself down to zero bytes,
  // and appending frames to a magic-less file would poison every later
  // read. A partial magic (0 < size < 8) is started over the same way.
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    Status status = Status::Internal(Errno("fstat", path_));
    Close().ok();
    return status;
  }
  if (st.st_size < static_cast<off_t>(sizeof(kWalFileMagic))) {
    Status status;
    if (st.st_size > 0 && ::ftruncate(fd_, 0) != 0) {
      status = Status::Internal(Errno("ftruncate", path_));
    }
    if (status.ok()) {
      status = WriteAllFd(fd_, kWalFileMagic, sizeof(kWalFileMagic),
                          path_);
    }
    if (status.ok()) status = Flush();
    if (!status.ok()) {
      Close().ok();
      return status;
    }
  }
  return Status::Ok();
}

Status WalWriter::Append(uint64_t seq, std::string_view payload) {
  if (!is_open()) return Status::FailedPrecondition("WAL not open");
  // Covers frame build + write; the fsync is Flush()'s own wal_fsync
  // span.
  NOUS_SPAN_VAR(span, "wal_append");
  span.Attr("bytes", payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  BinaryWriter frame;
  frame.U32(kWalFrameMagic);
  frame.U64(seq);
  frame.U32(len);
  frame.U32(FrameCrc(seq, len, payload));
  frame.Raw(payload.data(), payload.size());

  size_t persist = frame.size();
  Status injected;
  if (auto fault = FaultInjector::Global().Hit("wal_append")) {
    switch (fault->kind) {
      case FaultKind::kFail:
        return Status::Internal("fault injected: wal_append fail");
      case FaultKind::kTorn:
        persist = fault->arg > 0 ? std::min<size_t>(
                                       static_cast<size_t>(fault->arg),
                                       frame.size())
                                 : frame.size() / 2;
        injected = Status::Internal("fault injected: wal_append torn");
        break;
      default:
        break;
    }
  }

  NOUS_RETURN_IF_ERROR(WriteAllFd(fd_, frame.data().data(), persist, path_));
  return injected;  // OK, or the torn fault: a frame prefix hit the file
}

Status WalWriter::Flush() const {
  if (!is_open()) return Status::FailedPrecondition("WAL not open");
  NOUS_SPAN("wal_fsync");
  if (auto fault = FaultInjector::Global().Hit("wal_fsync")) {
    if (fault->kind == FaultKind::kFail) {
      return Status::Internal("fault injected: wal_fsync fail");
    }
    if (fault->kind == FaultKind::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault->arg));
    }
  }
  if (::fsync(fd_) != 0) return Status::Internal(Errno("fsync", path_));
  return Status::Ok();
}

Status WalWriter::Close() {
  if (!is_open()) return Status::Ok();
  Status status;
  if (::close(fd_) != 0) status = Status::Internal(Errno("close", path_));
  fd_ = -1;
  if (auto fault = FaultInjector::Global().Hit("wal_close")) {
    if (fault->kind == FaultKind::kTruncate && fault->arg > 0) {
      struct stat st;
      if (::stat(path_.c_str(), &st) == 0) {
        uint64_t size = static_cast<uint64_t>(st.st_size);
        uint64_t chop = std::min<uint64_t>(
            static_cast<uint64_t>(fault->arg), size);
        TruncateFile(path_, size - chop).ok();
      }
    }
  }
  return status;
}

Result<WalReadResult> WalReader::ReadAll(const std::string& path) {
  WalReadResult result;
  if (!FileExists(path)) return result;
  NOUS_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  if (contents.size() < sizeof(kWalFileMagic)) {
    // A file this short cannot hold the magic the writer fsyncs at
    // creation; treat it as an empty log with a dropped tail.
    result.dropped_bytes = contents.size();
    return result;
  }
  if (std::memcmp(contents.data(), kWalFileMagic, sizeof(kWalFileMagic)) !=
      0) {
    return Status::DataLoss("not a NOUS WAL file: " + path);
  }

  BinaryReader reader(contents);
  reader.Skip(sizeof(kWalFileMagic)).ok();
  result.valid_bytes = reader.offset();

  while (!reader.AtEnd()) {
    uint32_t magic = 0;
    uint64_t seq = 0;
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!reader.U32(&magic).ok() || magic != kWalFrameMagic ||
        !reader.U64(&seq).ok() || !reader.U32(&len).ok() ||
        !reader.U32(&crc).ok() || reader.remaining() < len) {
      break;  // torn or corrupt frame header: everything after is tail
    }
    std::string_view payload(contents.data() + reader.offset(), len);
    if (FrameCrc(seq, len, payload) != crc) break;
    reader.Skip(len).ok();
    WalRecord record;
    record.seq = seq;
    record.payload.assign(payload);
    result.records.push_back(std::move(record));
    result.valid_bytes = reader.offset();
  }

  result.dropped_bytes = contents.size() - result.valid_bytes;
  result.dropped_records = result.dropped_bytes > 0 ? 1 : 0;
  return result;
}

}  // namespace nous
