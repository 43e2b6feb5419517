//===--- HandlerBlockingCheck.cc - nous-handler-blocking ------------------===//

#include "HandlerBlockingCheck.h"

#include "NousTidyUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace nous {

HandlerBlockingCheck::HandlerBlockingCheck(StringRef Name,
                                           ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      HandlerPaths(Options.get("HandlerPaths", "/src/server/")) {
  HandlerPathsVec = SplitList(HandlerPaths);
}

void HandlerBlockingCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "HandlerPaths", HandlerPaths);
}

void HandlerBlockingCheck::registerMatchers(MatchFinder *Finder) {
  // "::Handle" matches any method or function whose unqualified name
  // starts with Handle (HandleQuery, HandleConnection, ...).
  auto InHandler =
      forFunction(functionDecl(matchesName("::Handle")).bind("handler"));

  Finder->addMatcher(
      cxxConstructExpr(hasDeclaration(cxxConstructorDecl(ofClass(
                           hasAnyName("::nous::WriterMutexLock")))),
                       InHandler)
          .bind("writer-lock"),
      this);
  Finder->addMatcher(
      cxxMemberCallExpr(
          callee(cxxMethodDecl(hasAnyName("lock", "try_lock"),
                               ofClass(hasAnyName(
                                   "::nous::AnnotatedSharedMutex")))),
          InHandler)
          .bind("writer-lock"),
      this);
  Finder->addMatcher(
      cxxMemberCallExpr(
          callee(cxxMethodDecl(
              hasAnyName("Open", "Append", "Flush", "Close", "OpenWal",
                         "LogBatch", "WaitDurable", "WriteCheckpoint",
                         "InstallCheckpoint", "Checkpoint",
                         "EnableDurability", "Recover"),
              ofClass(hasAnyName("::nous::WalWriter",
                                 "::nous::DurabilityManager", "::nous::Nous")))),
          InHandler)
          .bind("durability-call"),
      this);
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName(
                   "::nous::AtomicWriteFile", "::nous::FsyncParentDir",
                   "::nous::TruncateFile", "::nous::RemoveFile", "::fsync",
                   "::fdatasync"))),
               InHandler)
          .bind("durability-call"),
      this);
}

void HandlerBlockingCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *Handler = Result.Nodes.getNodeAs<FunctionDecl>("handler");
  if (Handler == nullptr)
    return;

  if (const auto *Lock = Result.Nodes.getNodeAs<Expr>("writer-lock")) {
    const std::string File =
        FileOf(*Result.SourceManager, Lock->getBeginLoc());
    if (!PathContainsAny(File, HandlerPathsVec))
      return;
    diag(Lock->getBeginLoc(),
         "%0 takes an exclusive (writer) lock; request handlers serve off "
         "published snapshots and must never hold the KG writer lock "
         "(DESIGN.md §5.14)")
        << Handler;
    return;
  }

  if (const auto *Call = Result.Nodes.getNodeAs<CallExpr>("durability-call")) {
    const std::string File =
        FileOf(*Result.SourceManager, Call->getBeginLoc());
    if (!PathContainsAny(File, HandlerPathsVec))
      return;
    const FunctionDecl *Callee = Call->getDirectCallee();
    if (Callee == nullptr)
      return;
    diag(Call->getExprLoc(),
         "%0 calls the fsync-path primitive %1; disk latency must not ride "
         "on the request path — delegate durable work to the Nous facade "
         "(DESIGN.md §5.14)")
        << Handler << Callee;
    return;
  }
}

} // namespace nous
} // namespace tidy
} // namespace clang
