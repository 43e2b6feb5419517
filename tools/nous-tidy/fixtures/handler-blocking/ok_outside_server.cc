// Negative fixture: a Handle* function outside the serving layer
// (this file is not under /src/server/) may lock and sync — the
// invariant is about request handlers, not the name "Handle".
#include "common/thread_annotations.h"
#include "durability/wal.h"

namespace nous {

class OfflineBatcher {
 public:
  void HandleBatch() {
    WriterMutexLock lock(mu_);
    (void)wal_.Flush();
  }

 private:
  AnnotatedSharedMutex mu_;
  WalWriter wal_;
};

}  // namespace nous
