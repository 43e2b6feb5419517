// Thread-safety annotation negative-compile cases, selected with
// -DNOUS_STATIC_CASE=<n> (see CMakeLists.txt in this directory).
//
//   0  positive control: correct locking through the public API —
//      MUST compile (validates the RETURN_CAPABILITY accessor
//      aliasing that every other case depends on)
//   1  calling a REQUIRES_SHARED(*Unlocked) method without the lock
//   2  reading a GUARDED_BY member without holding its mutex
//   3  calling a REQUIRES (exclusive) method under only a reader lock
//   4  re-acquiring a held mutex (self-deadlock with a queued writer)
//   5  touching ThreadRole-guarded state (KgPipeline's miner window)
//      from code that never claimed the role, as a commit path would
//
// Cases 1-5 are each expected to FAIL under -Werror=thread-safety.
// Keep each case minimal: one bug per case, everything else locked
// correctly, so the expected diagnostic is the only diagnostic.

#include "common/thread_annotations.h"

#ifndef NOUS_STATIC_CASE
#error "compile with -DNOUS_STATIC_CASE=<case number>"
#endif

namespace nous {

// A miniature KgPipeline: shared mutex, guarded state, REQUIRES'd
// accessors, and the RETURN_CAPABILITY accessor pattern used across
// the real codebase.
class MiniPipeline {
 public:
  AnnotatedSharedMutex& mutex() const RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }

  int edges() const REQUIRES_SHARED(mutex_) { return edges_; }
  void AddEdge() REQUIRES(mutex_) { ++edges_; }

  int EdgesUnlocked() const REQUIRES_SHARED(mutex_) { return edges_; }

  void Ingest() EXCLUDES(mutex_) {
    WriterMutexLock lock(mutex_);
    AddEdge();
  }

  // The miner-stage shape: window state guarded by a role that only
  // the stage routine (and readers at rest) claim.
  void MineLocked() REQUIRES(stage_role_) { ++window_edges_; }
  void Mine() {
    RoleScope role(stage_role_);
    MineLocked();
  }
  int window_edges() const {
    SharedRoleScope role(stage_role_);
    return window_edges_;
  }
  void CommitTouchingWindow();  // defined by case 5

 private:
  mutable AnnotatedSharedMutex mutex_;
  int edges_ GUARDED_BY(mutex_) = 0;
  mutable ThreadRole stage_role_;
  int window_edges_ GUARDED_BY(stage_role_) = 0;
};

#if NOUS_STATIC_CASE == 0
// Positive control: correct locking through the accessor must satisfy
// REQUIRES clauses written against the member (lock_returned
// aliasing). If this case fails, the annotation plumbing is broken and
// the negative cases below prove nothing.
int CorrectUse() {
  MiniPipeline p;
  p.Ingest();
  p.Mine();
  ReaderMutexLock lock(p.mutex());
  return p.edges() + p.EdgesUnlocked() + p.window_edges();
}

#elif NOUS_STATIC_CASE == 1
// BUG: *Unlocked call with no lock held — the exact mistake the
// naming convention invites and the annotations exist to catch.
int MissingLock() {
  MiniPipeline p;
  return p.EdgesUnlocked();  // expected error: requires holding mutex
}

#elif NOUS_STATIC_CASE == 2
// BUG: guarded member read without the mutex.
class Counter {
 public:
  int Read() const { return value_; }  // expected error: guarded_by

 private:
  mutable AnnotatedMutex mutex_;
  int value_ GUARDED_BY(mutex_) = 0;
};
int UnguardedRead() {
  Counter c;
  return c.Read();
}

#elif NOUS_STATIC_CASE == 3
// BUG: mutation under a shared (reader) lock.
void WriteUnderReaderLock() {
  MiniPipeline p;
  ReaderMutexLock lock(p.mutex());
  p.AddEdge();  // expected error: requires exclusive, holds shared
}

#elif NOUS_STATIC_CASE == 4
// BUG: acquiring a lock the caller already holds. At runtime this
// deadlocks as soon as a writer queues between the two shared
// acquisitions; EXCLUDES turns it into a compile error.
void DoubleAcquire() {
  MiniPipeline p;
  WriterMutexLock lock(p.mutex());
  p.Ingest();  // expected error: Ingest EXCLUDES a held mutex
}

#elif NOUS_STATIC_CASE == 5
// BUG: the commit path reaching into the miner window while the stage
// may own it.
void MiniPipeline::CommitTouchingWindow() {
  ++window_edges_;  // expected error: requires holding role stage_role_
}

#else
#error "unknown NOUS_STATIC_CASE"
#endif

}  // namespace nous
