#ifndef NOUS_COMMON_THREAD_ANNOTATIONS_H_
#define NOUS_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>
#include <shared_mutex>

// Clang thread-safety annotations (-Wthread-safety) plus annotation-
// aware mutex wrappers. Locking contracts that PR 2 wrote down in
// comments become compiler-checked here: a member declared
// GUARDED_BY(mu) cannot be touched without holding `mu`, a method
// declared REQUIRES(mu) cannot be called without it, and the build
// breaks — under Clang — before any sanitizer ever runs. Under GCC
// every macro expands to nothing and the wrappers degrade to plain
// std::mutex / std::shared_mutex forwarding.
//
// Usage rules (DESIGN.md "Static analysis & locking contracts"):
//  - Declare shared state `T member_ GUARDED_BY(mutex_);`.
//  - Methods that expect the caller to hold the lock declare
//    REQUIRES(mutex_) (exclusive) or REQUIRES_SHARED(mutex_), and by
//    repo convention are named *Locked or *Unlocked (enforced by
//    tools/nous_lint.py).
//  - Acquire with the RAII guards below (MutexLock, ReaderMutexLock,
//    WriterMutexLock, UniqueLock) — std::lock_guard/std::unique_lock
//    are invisible to the analysis and will produce false positives.
//  - Expose a mutex through an accessor annotated
//    RETURN_CAPABILITY(mutex_) so lock sites and REQUIRES clauses
//    resolve to the same capability across class boundaries.
//  - The analysis does not propagate capabilities into lambda bodies;
//    hoist guarded reads out of lambdas or annotate the lambda with
//    NO_THREAD_SAFETY_ANALYSIS and a justifying comment.

#if defined(__clang__)
#define NOUS_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define NOUS_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op outside Clang
#endif

/// Declares a class to be a lockable capability ("mutex" names the
/// kind in diagnostics).
#define CAPABILITY(x) NOUS_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability.
#define SCOPED_CAPABILITY NOUS_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Data member may only be accessed while holding the given mutex.
#define GUARDED_BY(x) NOUS_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer member whose *pointee* may only be accessed under the mutex.
#define PT_GUARDED_BY(x) NOUS_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Function requires the caller to hold the mutex exclusively.
#define REQUIRES(...) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// Function requires the caller to hold at least a shared lock.
#define REQUIRES_SHARED(...) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the mutex exclusively and does not release it.
#define ACQUIRE(...) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// Function acquires the mutex in shared mode.
#define ACQUIRE_SHARED(...) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the mutex (any mode for scoped capabilities).
#define RELEASE(...) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// Function releases a shared hold of the mutex.
#define RELEASE_SHARED(...) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// Function attempts the lock; first argument is the success value.
#define TRY_ACQUIRE(...) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...)                       \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(                 \
      try_acquire_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the mutex (the function acquires it itself);
/// catches self-deadlock at compile time.
#define EXCLUDES(...) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (informs the
/// analysis without acquiring).
#define ASSERT_CAPABILITY(x) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// Accessor returns a reference to the given mutex, so locking the
/// accessor's result counts as locking the underlying capability.
#define RETURN_CAPABILITY(x) \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Requires a
/// justifying comment at the use site.
#define NO_THREAD_SAFETY_ANALYSIS \
  NOUS_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace nous {

class UniqueLock;

/// std::mutex with thread-safety annotations. Satisfies the standard
/// Lockable requirements (lowercase methods) so unannotated code —
/// tests, std::condition_variable_any — still interoperates, but
/// annotated translation units must use the RAII guards below: the
/// analysis only credits acquisitions it can see.
class CAPABILITY("mutex") AnnotatedMutex {
 public:
  AnnotatedMutex() = default;

  AnnotatedMutex(const AnnotatedMutex&) = delete;
  AnnotatedMutex& operator=(const AnnotatedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class UniqueLock;  // needs the native handle for CV waits

  std::mutex mu_;  // lint: unguarded(this member IS the capability)
};

/// std::shared_mutex with thread-safety annotations. Writers use
/// WriterMutexLock (or lock()/unlock()); readers use ReaderMutexLock
/// (or lock_shared()/unlock_shared()).
class CAPABILITY("shared_mutex") AnnotatedSharedMutex {
 public:
  AnnotatedSharedMutex() = default;

  AnnotatedSharedMutex(const AnnotatedSharedMutex&) = delete;
  AnnotatedSharedMutex& operator=(const AnnotatedSharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;  // lint: unguarded(this member IS the capability)
};

/// RAII exclusive lock over an AnnotatedMutex (std::lock_guard
/// replacement that the analysis understands).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(AnnotatedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  AnnotatedMutex& mu_;
};

/// RAII exclusive lock compatible with std::condition_variable: wraps
/// a std::unique_lock over the mutex's native handle and exposes it
/// via std_lock() for cv.wait(...). Guarded-state predicates belong in
/// a `while (...) cv.wait(lock.std_lock());` loop in the enclosing
/// function, where the analysis can see the capability — not in a wait
/// lambda, which it cannot analyze.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(AnnotatedMutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~UniqueLock() RELEASE() {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  /// The underlying lock, for std::condition_variable::wait. The wait
  /// releases and reacquires internally; from the caller's point of
  /// view the capability is held before and after, which matches what
  /// the analysis assumes.
  std::unique_lock<std::mutex>& std_lock() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// RAII exclusive (writer) lock over an AnnotatedSharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(AnnotatedSharedMutex& mu) ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  AnnotatedSharedMutex& mu_;
};

/// RAII shared (reader) lock over an AnnotatedSharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(AnnotatedSharedMutex& mu) ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  AnnotatedSharedMutex& mu_;
};

/// A capability with no runtime state: it names a role that a thread
/// takes on by protocol instead of by locking, such as "owns the
/// streaming miner's window", which KgPipeline hands to its miner stage
/// thread for the length of an ingest batch. State declared GUARDED_BY
/// a role can be touched only inside a RoleScope (exclusive) or a
/// SharedRoleScope (read-only), so the analysis confines it to the code
/// paths that claim the role; a comment at each scope says why the
/// protocol gives that thread the role there.
class CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;

  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void Acquire() ACQUIRE() {}
  void Release() RELEASE() {}
  void AcquireShared() ACQUIRE_SHARED() {}
  void ReleaseShared() RELEASE_SHARED() {}
};

/// RAII exclusive claim of a ThreadRole.
class SCOPED_CAPABILITY RoleScope {
 public:
  explicit RoleScope(ThreadRole& role) ACQUIRE(role) : role_(role) {
    role_.Acquire();
  }
  ~RoleScope() RELEASE() { role_.Release(); }

  RoleScope(const RoleScope&) = delete;
  RoleScope& operator=(const RoleScope&) = delete;

 private:
  ThreadRole& role_;
};

/// RAII read-only claim of a ThreadRole.
class SCOPED_CAPABILITY SharedRoleScope {
 public:
  explicit SharedRoleScope(ThreadRole& role) ACQUIRE_SHARED(role)
      : role_(role) {
    role_.AcquireShared();
  }
  ~SharedRoleScope() RELEASE() { role_.ReleaseShared(); }

  SharedRoleScope(const SharedRoleScope&) = delete;
  SharedRoleScope& operator=(const SharedRoleScope&) = delete;

 private:
  ThreadRole& role_;
};

}  // namespace nous

#endif  // NOUS_COMMON_THREAD_ANNOTATIONS_H_
