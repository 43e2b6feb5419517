//===--- HandlerBlockingCheck.h - nous-handler-blocking -------------------===//

#ifndef NOUS_TOOLS_NOUS_TIDY_HANDLER_BLOCKING_CHECK_H_
#define NOUS_TOOLS_NOUS_TIDY_HANDLER_BLOCKING_CHECK_H_

#include <string>

#include "clang-tidy/ClangTidyCheck.h"
#include "llvm/ADT/SmallVector.h"
#include "llvm/ADT/StringRef.h"

namespace clang {
namespace tidy {
namespace nous {

/// Proves the serving-latency invariant (DESIGN.md §5.11/§5.14): HTTP
/// request handlers (Handle* functions under src/server/) serve off
/// published snapshots and must never
///
///  * take the KG writer lock (WriterMutexLock construction, or a raw
///    exclusive lock()/try_lock() on an AnnotatedSharedMutex) — one
///    slow handler would stall every reader and the ingest path; or
///  * call fsync-path durability primitives (WalWriter append/flush,
///    DurabilityManager logging, group-commit waits and checkpoints,
///    AtomicWriteFile/FsyncParentDir, Nous::Checkpoint/
///    EnableDurability/Recover) — disk latency would ride on the
///    request path.
///
/// Handlers that need durable ingest delegate to the Nous facade
/// (e.g. IngestText), which owns its locking and WAL discipline;
/// bounded bookkeeping locks (MutexLock/UniqueLock on plain
/// AnnotatedMutex) stay allowed.
///
/// Options:
///  * HandlerPaths — path substrings identifying the serving layer
///    (default "/src/server/").
class HandlerBlockingCheck : public ClangTidyCheck {
public:
  HandlerBlockingCheck(StringRef Name, ClangTidyContext *Context);
  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

private:
  const std::string HandlerPaths;
  llvm::SmallVector<llvm::StringRef, 8> HandlerPathsVec;
};

} // namespace nous
} // namespace tidy
} // namespace clang

#endif // NOUS_TOOLS_NOUS_TIDY_HANDLER_BLOCKING_CHECK_H_
