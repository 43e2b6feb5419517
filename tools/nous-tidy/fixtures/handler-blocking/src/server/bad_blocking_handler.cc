// Positive fixtures for nous-handler-blocking: request handlers in
// the serving layer must neither take the KG writer lock nor touch
// the fsync path.
#include <string>

#include "common/thread_annotations.h"
#include "durability/manager.h"
#include "durability/wal.h"

namespace nous {

class BlockingApi {
 public:
  void HandleLock() {
    // expect: 'HandleLock' takes an exclusive (writer) lock
    WriterMutexLock lock(kg_mutex_);
  }

  void HandleRawLock() {
    // Raw exclusive acquisition is just as bad as the RAII guard.
    // expect: 'HandleRawLock' takes an exclusive (writer) lock
    kg_mutex_.lock();
    kg_mutex_.unlock();
  }

  void HandleFlush() {
    // expect: 'HandleFlush' calls the fsync-path primitive 'Flush'
    (void)wal_.Flush();
  }

  void HandleWaitDurable() {
    // A group-commit wait blocks on another writer's fsync.
    // expect: 'HandleWaitDurable' calls the fsync-path primitive 'WaitDurable'
    (void)manager_.WaitDurable(1);
  }

  void HandleCheckpoint(std::string state) {
    // expect: 'HandleCheckpoint' calls the fsync-path primitive 'WriteCheckpoint'
    (void)manager_.WriteCheckpoint(state, /*kg_version=*/0);
  }

 private:
  AnnotatedSharedMutex kg_mutex_;
  WalWriter wal_;
  DurabilityManager manager_;
};

}  // namespace nous
