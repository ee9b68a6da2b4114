#ifndef PROMETHEUS_QUERY_QUERY_ENGINE_H_
#define PROMETHEUS_QUERY_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/plan_cache.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "core/database.h"
#include "core/read_view.h"
#include "index/index_manager.h"
#include "obs/trace.h"
#include "query/ast.h"
#include "query/system_catalog.h"

namespace prometheus::pool {

/// Variable bindings visible to an expression: range variables during query
/// evaluation, `$self` / `$link` / `$old` / `$new` in rule conditions.
using Environment = std::unordered_map<std::string, Value>;

/// A query result: named columns over rows of Values. Object-valued results
/// are references to the stored objects (POOL's object conservation,
/// 5.1.2.2) — the engine never copies database objects.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Convenience: the single column of a one-column result as a flat list.
  std::vector<Value> Column(std::size_t i = 0) const;
};

/// A query result plus its execution trace — what `PROFILE <select>` and
/// `ExecuteProfiled` return. The trace is a per-stage timing/cardinality
/// tree: parse, plan (one child per range with the chosen strategy),
/// execute (bindings scanned), sort, project.
struct QueryProfile {
  ResultSet rows;
  obs::TraceNode trace;
};

/// The POOL query processor (thesis ch. 5.1; architecture 6.1.5).
///
/// Evaluates `select` queries and standalone expressions against a
/// `Database`. Ranges iterate class extents *and* relationship extents
/// uniformly; expressions provide path navigation, selective downcast,
/// graph traversal (`traverse`, `children`, `parents`, `leaves`), context
/// restriction and subqueries. When an `IndexManager` is supplied, equality
/// conjuncts over indexed attributes replace extent scans (6.1.5.2/3).
///
/// Const discipline / concurrency: the const execution paths (`Execute`,
/// `Eval`, `Explain`) perform **no** `Database` mutation — results copy
/// attribute values and hold object references as bare Oids, never aliasing
/// engine-internal state. All reads route through the thread's active
/// `ReadView` (see `CurrentReadView()`): when the caller installs a pinned
/// `DbSnapshot` — directly via the `ReadView` overloads below or with a
/// `ScopedReadView` — execution is wait-free against writers and the
/// engine never touches the live database. With no view installed, reads
/// go to the live database, which only the thread writing it may read
/// unguarded: embedded single-threaded use, or rule callbacks inside the
/// writer's own write section. Any other thread reads a pinned snapshot
/// (the server pins one per request). Debug builds assert at the end of
/// every execution that the epoch did not move, i.e. that no write section
/// committed under a live-database read.
class QueryEngine {
 public:
  /// `db` (and `indexes`, when given) must outlive the engine.
  explicit QueryEngine(Database* db, IndexManager* indexes = nullptr)
      : db_(db), indexes_(indexes) {}

  /// Attaches a plan cache (nullable; must outlive the engine). With one
  /// attached, `Execute(text)` / `ExecuteProfiled` consult it before
  /// parsing: a hit skips parse and the access-path analysis entirely,
  /// executing the cached immutable AST. The cache is internally
  /// synchronized, so concurrent const executions may share it. Index
  /// existence is deliberately NOT baked into cached plans — see
  /// cache::PlanEntry — so index DDL needs no invalidation.
  void set_plan_cache(cache::PlanCache* plan_cache) {
    plan_cache_ = plan_cache;
  }

  /// Attaches the virtual system catalog (nullable; must outlive the
  /// engine). With one attached, a range over a registered `sys.*` class
  /// materializes a point-in-time row set of `Value` structs instead of
  /// resolving a stored extent. Materialization happens at most once per
  /// top-level execution: joins and subqueries touching the same catalog
  /// class within one query observe the same rows.
  void set_system_catalog(const SystemCatalog* catalog) {
    catalog_ = catalog;
  }
  const SystemCatalog* system_catalog() const { return catalog_; }

  /// Parses and runs a query. `ctx` (nullable) is a cooperative deadline /
  /// cancellation token: the join loops call `ctx->Check()` once per
  /// enumerated binding and unwind with `kDeadlineExceeded` / `kAborted`,
  /// so a long scan aborts mid-execution instead of running to completion
  /// after its caller has given up. Without a context the loops pay one
  /// branch per binding.
  Result<ResultSet> Execute(const std::string& query,
                            const ExecutionContext* ctx = nullptr) const;

  /// Parses and runs a query against an explicit read view (typically a
  /// pinned `DbSnapshot`): installs it as the thread's view for the
  /// duration, so every read — including index-fallback extent scans and
  /// subqueries — observes exactly that snapshot.
  Result<ResultSet> Execute(const std::string& query, const ReadView& view,
                            const ExecutionContext* ctx = nullptr) const {
    ScopedReadView scope(&view);
    return Execute(query, ctx);
  }

  /// Runs a parsed query; `outer` provides correlated bindings.
  Result<ResultSet> Execute(const SelectQuery& query, const Environment& outer,
                            const ExecutionContext* ctx = nullptr) const;

  /// Parses and runs a query with span tracing: returns the rows plus the
  /// per-stage timing/cardinality tree. Accepts the query with or without
  /// a leading `profile` keyword. Tracing costs two clock reads per stage;
  /// the unprofiled `Execute` path pays none of it.
  Result<QueryProfile> ExecuteProfiled(
      const std::string& query, const ExecutionContext* ctx = nullptr) const;

  /// Profiled execution against an explicit read view; see the `Execute`
  /// overload above.
  Result<QueryProfile> ExecuteProfiled(
      const std::string& query, const ReadView& view,
      const ExecutionContext* ctx = nullptr) const {
    ScopedReadView scope(&view);
    return ExecuteProfiled(query, ctx);
  }

  /// Parses and evaluates a standalone expression under `env`.
  Result<Value> Eval(const std::string& expr, const Environment& env) const;

  /// Describes the execution strategy chosen for `query`, one line per
  /// range: extent scan, index lookup (with the attribute), or dependent
  /// expression — the observable face of the optimiser (6.1.5.3).
  Result<std::string> Explain(const std::string& query) const;

  /// Evaluates a parsed expression under `env`.
  Result<Value> Eval(const Expr& expr, const Environment& env) const;

  const Database* db() const { return db_; }

 private:
  struct RangeBinding;

  /// The view reads route through: the thread's installed view when one is
  /// active, otherwise the live database.
  const ReadView& view() const {
    const ReadView* v = CurrentReadView();
    return v != nullptr ? *v : static_cast<const ReadView&>(*db_);
  }

  Result<Value> EvalPath(const Expr& expr, const Environment& env) const;
  Result<Value> EvalBinary(const Expr& expr, const Environment& env) const;
  Result<Value> EvalCall(const Expr& expr, const Environment& env) const;
  Result<Value> MemberOf(Oid oid, const std::string& member) const;

  /// Applies an already-evaluated binary operator (no short-circuiting).
  static Result<Value> ApplyBinaryOp(BinaryOp op, const Value& lhs,
                                     const Value& rhs);

  /// Evaluates an expression over a *group* of bindings: `count`, `sum`,
  /// `min`, `max` and `avg` calls aggregate their argument across the
  /// group; all other subexpressions evaluate under the group's first
  /// binding (they must be group-constant for meaningful results).
  Result<Value> EvalGrouped(const Expr& expr,
                            const std::vector<Environment>& group) const;

  /// Runs a parsed query; `trace` (nullable) receives plan/execute/sort/
  /// project child spans when profiling; `ctx` (nullable) is checked once
  /// per enumerated binding; `plan` (nullable) supplies the cached
  /// access-path analysis so the where-clause need not be re-walked.
  Result<ResultSet> ExecuteInternal(const SelectQuery& query,
                                    const Environment& outer,
                                    obs::TraceNode* trace,
                                    const ExecutionContext* ctx,
                                    const cache::PlanEntry* plan = nullptr)
      const;

  /// Candidate oids for an extent range, narrowed through an index when the
  /// where-clause pins `var.attr` to a constant. `strategy` (nullable)
  /// receives the human-readable access path chosen; `plan` (nullable)
  /// short-circuits the conjunct walk with the cached candidates.
  Result<std::vector<Value>> RangeCandidates(const SelectQuery& query,
                                             const FromRange& range,
                                             const Environment& env,
                                             std::string* strategy,
                                             const cache::PlanEntry* plan)
      const;

  /// Wraps a freshly parsed AST plus its structural access-path analysis
  /// into a cacheable plan entry.
  std::shared_ptr<const cache::PlanEntry> BuildPlanEntry(
      std::shared_ptr<const SelectQuery> ast) const;

  /// The where-clause conjunct `range.var.attr = literal` usable through
  /// an existing index, or nullptr. `*attr` receives the attribute name.
  const Expr* FindIndexableConjunct(const SelectQuery& query,
                                    const FromRange& range,
                                    std::string* attr) const;

  Database* db_;
  IndexManager* indexes_;
  cache::PlanCache* plan_cache_ = nullptr;
  const SystemCatalog* catalog_ = nullptr;
};

/// True when `text` matches the SQL-style `like` pattern (`%` = any run,
/// `_` = any single character). Exposed for tests.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// True when `text` starts with the `profile` keyword (case-insensitive) —
/// the POOL wrapper the server and shell route to `ExecuteProfiled`.
bool IsProfileQuery(const std::string& text);

/// `text` without its leading `profile` keyword (unchanged when absent).
std::string StripProfileKeyword(const std::string& text);

}  // namespace prometheus::pool

#endif  // PROMETHEUS_QUERY_QUERY_ENGINE_H_
