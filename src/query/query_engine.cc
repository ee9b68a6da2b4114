#include "query/query_engine.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <functional>
#include <unordered_set>

#include "obs/metrics.h"
#include "query/parser.h"

namespace prometheus::pool {

namespace {

/// Strict truthiness: booleans are themselves, null is false (absent
/// information fails a filter), anything else is a type error (5.1.2.4).
Result<bool> Truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kBool:
      return v.AsBool();
    case ValueType::kNull:
      return false;
    default:
      return Status::TypeError(std::string("expected a boolean, got ") +
                               ValueTypeName(v.type()));
  }
}

/// The query layer's metrics, registered once. Pointers are cached so the
/// hot path never does a name lookup; each hook is one enabled-branch plus
/// a relaxed atomic op.
struct EngineMetrics {
  obs::Counter* queries;
  obs::Counter* profiled;
  obs::Counter* errors;
  obs::Counter* rows_scanned;
  obs::Counter* rows_returned;
  obs::Counter* index_lookups;
  obs::Counter* extent_scans;
  obs::Counter* catalog_materializations;
  obs::Histogram* latency;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      obs::MetricsRegistry& reg = obs::Registry();
      EngineMetrics em;
      em.queries = reg.GetCounter("pool_queries_total",
                                  "Top-level POOL queries executed");
      em.profiled = reg.GetCounter("pool_queries_profiled_total",
                                   "Queries executed with span tracing");
      em.errors = reg.GetCounter("pool_query_errors_total",
                                 "Queries that failed to parse or execute");
      em.rows_scanned =
          reg.GetCounter("pool_rows_scanned_total",
                         "Candidate bindings enumerated by the join loops");
      em.rows_returned = reg.GetCounter("pool_rows_returned_total",
                                        "Result rows produced");
      em.index_lookups =
          reg.GetCounter("pool_index_lookups_total",
                         "Ranges resolved through an attribute index");
      em.extent_scans = reg.GetCounter("pool_extent_scans_total",
                                       "Ranges resolved by full extent scan");
      em.catalog_materializations = reg.GetCounter(
          "pool_catalog_materializations_total",
          "sys.* virtual extents materialized from live server state");
      em.latency = reg.GetHistogram("pool_query_micros",
                                    "Top-level query latency (microseconds)");
      return em;
    }();
    return m;
  }
};

/// Per-execution memo of materialized catalog extents. The outermost
/// ExecuteInternal on a thread installs one; nested executions (subqueries,
/// dependent ranges) reuse it, so a self-join of `sys.requests` — or a
/// correlated subquery re-touching `sys.metrics` — observes one consistent
/// point-in-time row set per top-level query.
struct CatalogScope {
  std::unordered_map<std::string, std::vector<Value>> materialized;
};

thread_local CatalogScope* g_catalog_scope = nullptr;

/// RAII installer: a no-op when a scope is already active on this thread.
class ScopedCatalogScope {
 public:
  ScopedCatalogScope() {
    if (g_catalog_scope == nullptr) {
      g_catalog_scope = &local_;
      installed_ = true;
    }
  }
  ~ScopedCatalogScope() {
    if (installed_) g_catalog_scope = nullptr;
  }
  ScopedCatalogScope(const ScopedCatalogScope&) = delete;
  ScopedCatalogScope& operator=(const ScopedCatalogScope&) = delete;

 private:
  CatalogScope local_;
  bool installed_ = false;
};

/// The structural access-path analysis (6.1.5.3): per extent range of
/// `query`, every where-clause conjunct `var.attr = literal`, keyed by the
/// range's address. Whether an index (or even the class) exists is left to
/// execution, which checks it against the view it reads.
std::unordered_map<const void*, std::vector<cache::PlanEntry::EqConjunct>>
EqConjuncts(const SelectQuery& query) {
  std::unordered_map<const void*, std::vector<cache::PlanEntry::EqConjunct>>
      out;
  if (query.where == nullptr) return out;
  std::vector<const Expr*> conjuncts;
  std::function<void(const Expr*)> flatten = [&](const Expr* e) {
    if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
      flatten(e->children[0].get());
      flatten(e->children[1].get());
    } else {
      conjuncts.push_back(e);
    }
  };
  flatten(query.where.get());
  for (const FromRange& range : query.from) {
    if (range.source_expr != nullptr) continue;
    std::vector<cache::PlanEntry::EqConjunct> found;
    for (const Expr* c : conjuncts) {
      if (c->kind != ExprKind::kBinary || c->binary_op != BinaryOp::kEq) {
        continue;
      }
      const Expr* path = c->children[0].get();
      const Expr* lit = c->children[1].get();
      if (path->kind != ExprKind::kPath) std::swap(path, lit);
      if (path->kind != ExprKind::kPath || lit->kind != ExprKind::kLiteral) {
        continue;
      }
      const Expr* base = path->children[0].get();
      if (base->kind != ExprKind::kVariable || base->name != range.variable) {
        continue;
      }
      found.push_back({path->name, lit});
    }
    if (!found.empty()) out.emplace(&range, std::move(found));
  }
  return out;
}

}  // namespace

bool IsProfileQuery(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  static constexpr char kKeyword[] = "profile";
  for (std::size_t k = 0; k < 7; ++k, ++i) {
    if (i >= text.size() ||
        std::tolower(static_cast<unsigned char>(text[i])) != kKeyword[k]) {
      return false;
    }
  }
  // Must be a whole word followed by the query body.
  return i < text.size() && std::isspace(static_cast<unsigned char>(text[i]));
}

std::string StripProfileKeyword(const std::string& text) {
  if (!IsProfileQuery(text)) return text;
  std::size_t i = 0;
  while (std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  i += 7;  // "profile"
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  return text.substr(i);
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard matcher with backtracking over '%'.
  std::size_t t = 0, p = 0;
  std::size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

std::vector<Value> ResultSet::Column(std::size_t i) const {
  std::vector<Value> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    if (i < row.size()) out.push_back(row[i]);
  }
  return out;
}

Result<ResultSet> QueryEngine::Execute(const std::string& query,
                                       const ExecutionContext* ctx) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queries->Increment();
  obs::ScopedTimer timer(metrics.latency);
  // Plan tier: a hit executes the cached immutable AST, skipping parse and
  // the access-path analysis. Failed parses are never cached (the error
  // path re-parses), and index existence is re-checked per execution.
  std::shared_ptr<const cache::PlanEntry> plan;
  if (plan_cache_ != nullptr) plan = plan_cache_->Lookup(query);
  if (plan == nullptr) {
    Result<std::unique_ptr<SelectQuery>> parsed = ParseQuery(query);
    if (!parsed.ok()) {
      metrics.errors->Increment();
      return parsed.status();
    }
    plan = BuildPlanEntry(
        std::shared_ptr<const SelectQuery>(std::move(parsed).value()));
    if (plan_cache_ != nullptr) plan_cache_->Insert(query, plan);
  }
  Result<ResultSet> result =
      ExecuteInternal(*plan->ast, Environment{}, nullptr, ctx, *plan);
  if (!result.ok()) metrics.errors->Increment();
  return result;
}

Result<QueryProfile> QueryEngine::ExecuteProfiled(
    const std::string& query, const ExecutionContext* ctx) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queries->Increment();
  metrics.profiled->Increment();
  obs::ScopedTimer timer(metrics.latency);

  QueryProfile out;
  out.trace.name = "query";
  const std::string body = StripProfileKeyword(query);
  out.trace.detail = body;
  obs::SpanTimer total(&out.trace);

  // With a plan cache attached the trace stays self-describing: a `cache`
  // span reports the plan hit/miss, and the `parse` span appears only when
  // parsing actually happened.
  std::shared_ptr<const cache::PlanEntry> plan;
  if (plan_cache_ != nullptr) {
    obs::TraceNode cache_node("cache");
    {
      obs::SpanTimer span(&cache_node);
      plan = plan_cache_->Lookup(body);
    }
    cache_node.detail = plan != nullptr
                            ? "plan hit (parse + analysis skipped)"
                            : "plan miss";
    out.trace.children.push_back(std::move(cache_node));
  }
  if (plan == nullptr) {
    obs::TraceNode parse_node("parse");
    Result<std::unique_ptr<SelectQuery>> parsed = [&] {
      obs::SpanTimer span(&parse_node);
      return ParseQuery(body);
    }();
    out.trace.children.push_back(std::move(parse_node));
    if (!parsed.ok()) {
      metrics.errors->Increment();
      return parsed.status();
    }
    plan = BuildPlanEntry(
        std::shared_ptr<const SelectQuery>(std::move(parsed).value()));
    if (plan_cache_ != nullptr) plan_cache_->Insert(body, plan);
  }

  Result<ResultSet> rows = ExecuteInternal(*plan->ast, Environment{},
                                           &out.trace, ctx, *plan);
  if (!rows.ok()) {
    metrics.errors->Increment();
    return rows.status();
  }
  out.rows = std::move(rows).value();
  out.trace.rows = static_cast<std::int64_t>(out.rows.rows.size());
  total.Stop();
  return out;
}

Result<Value> QueryEngine::Eval(const std::string& expr,
                                const Environment& env) const {
  PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> parsed,
                              ParseExpression(expr));
  return Eval(*parsed, env);
}

// ------------------------------------------------------------- expressions

Result<Value> QueryEngine::Eval(const Expr& expr,
                                const Environment& env) const {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kVariable: {
      auto it = env.find(expr.name);
      if (it == env.end()) {
        return Status::NotFound("unbound variable '" + expr.name + "'");
      }
      return it->second;
    }
    case ExprKind::kPath:
      return EvalPath(expr, env);
    case ExprKind::kDowncast: {
      PROMETHEUS_ASSIGN_OR_RETURN(Value base, Eval(*expr.children[0], env));
      // Selective downcast (5.1.1.2): keep only values of the named class.
      if (base.type() == ValueType::kRef) {
        return view().IsInstanceOf(base.AsRef(), expr.name) ? base
                                                          : Value::Null();
      }
      if (base.type() == ValueType::kList) {
        Value::List filtered;
        for (const Value& v : base.AsList()) {
          if (v.type() == ValueType::kRef &&
              view().IsInstanceOf(v.AsRef(), expr.name)) {
            filtered.push_back(v);
          }
        }
        return Value::MakeList(std::move(filtered));
      }
      if (base.is_null()) return Value::Null();
      return Status::TypeError("downcast applies to objects and lists");
    }
    case ExprKind::kUnary: {
      PROMETHEUS_ASSIGN_OR_RETURN(Value operand,
                                  Eval(*expr.children[0], env));
      if (expr.unary_op == UnaryOp::kNot) {
        PROMETHEUS_ASSIGN_OR_RETURN(bool b, Truthy(operand));
        return Value::Bool(!b);
      }
      PROMETHEUS_ASSIGN_OR_RETURN(double d, operand.ToNumeric());
      if (operand.type() == ValueType::kInt) {
        return Value::Int(-operand.AsInt());
      }
      return Value::Double(-d);
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, env);
    case ExprKind::kCall:
      return EvalCall(expr, env);
    case ExprKind::kSubquery: {
      PROMETHEUS_ASSIGN_OR_RETURN(ResultSet rs,
                                  Execute(*expr.subquery, env));
      Value::List out;
      for (const auto& row : rs.rows) {
        if (row.size() == 1) {
          out.push_back(row[0]);
        } else {
          out.push_back(Value::MakeList(row));
        }
      }
      return Value::MakeList(std::move(out));
    }
  }
  return Status::TypeError("malformed expression");
}

Result<Value> QueryEngine::MemberOf(Oid oid, const std::string& member) const {
  if (const Link* link = view().GetLink(oid)) {
    if (member == "source") return Value::Ref(link->source);
    if (member == "target") return Value::Ref(link->target);
    if (member == "context") {
      return link->context == kNullOid ? Value::Null()
                                       : Value::Ref(link->context);
    }
    if (member == "relationship") return Value::String(link->def->name());
    return view().GetLinkAttribute(oid, member);
  }
  if (view().GetObject(oid) != nullptr) {
    if (member == "class") {
      return Value::String(view().GetObject(oid)->cls->name());
    }
    return view().GetAttribute(oid, member);
  }
  return Status::NotFound("no object or link @" + std::to_string(oid));
}

Result<Value> QueryEngine::EvalPath(const Expr& expr,
                                    const Environment& env) const {
  PROMETHEUS_ASSIGN_OR_RETURN(Value base, Eval(*expr.children[0], env));
  if (base.is_null()) return Value::Null();  // null propagation
  if (base.type() == ValueType::kRef) {
    return MemberOf(base.AsRef(), expr.name);
  }
  if (base.type() == ValueType::kStruct) {
    // Catalog rows: field access by name. A missing field is an error, not
    // null — typos on sys.* attributes should be loud.
    if (const Value* field = base.Field(expr.name)) return *field;
    return Status::NotFound("struct has no field '" + expr.name + "'");
  }
  if (base.type() == ValueType::kList) {
    // Path through a collection maps over its elements.
    Value::List out;
    for (const Value& v : base.AsList()) {
      if (v.is_null()) continue;
      if (v.type() != ValueType::kRef) {
        return Status::TypeError("path through a list requires objects");
      }
      PROMETHEUS_ASSIGN_OR_RETURN(Value member, MemberOf(v.AsRef(), expr.name));
      out.push_back(std::move(member));
    }
    return Value::MakeList(std::move(out));
  }
  return Status::TypeError("path step '." + expr.name +
                           "' applies to objects, links and lists");
}

Result<Value> QueryEngine::EvalBinary(const Expr& expr,
                                      const Environment& env) const {
  // Short-circuit boolean operators first.
  if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
    PROMETHEUS_ASSIGN_OR_RETURN(Value lv, Eval(*expr.children[0], env));
    PROMETHEUS_ASSIGN_OR_RETURN(bool lb, Truthy(lv));
    if (expr.binary_op == BinaryOp::kAnd && !lb) return Value::Bool(false);
    if (expr.binary_op == BinaryOp::kOr && lb) return Value::Bool(true);
    PROMETHEUS_ASSIGN_OR_RETURN(Value rv, Eval(*expr.children[1], env));
    PROMETHEUS_ASSIGN_OR_RETURN(bool rb, Truthy(rv));
    return Value::Bool(rb);
  }
  PROMETHEUS_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.children[0], env));
  PROMETHEUS_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.children[1], env));
  return ApplyBinaryOp(expr.binary_op, lhs, rhs);
}

Result<Value> QueryEngine::ApplyBinaryOp(BinaryOp op, const Value& lhs,
                                         const Value& rhs) {
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(lhs.Equals(rhs));
    case BinaryOp::kNe:
      return Value::Bool(!lhs.Equals(rhs));
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
      PROMETHEUS_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
      switch (op) {
        case BinaryOp::kLt:
          return Value::Bool(c < 0);
        case BinaryOp::kLe:
          return Value::Bool(c <= 0);
        case BinaryOp::kGt:
          return Value::Bool(c > 0);
        default:
          return Value::Bool(c >= 0);
      }
    }
    case BinaryOp::kLike: {
      if (lhs.is_null()) return Value::Bool(false);
      if (lhs.type() != ValueType::kString ||
          rhs.type() != ValueType::kString) {
        return Status::TypeError("'like' requires strings");
      }
      return Value::Bool(LikeMatch(lhs.AsString(), rhs.AsString()));
    }
    case BinaryOp::kIn: {
      if (rhs.type() != ValueType::kList) {
        return Status::TypeError("'in' requires a list or subquery");
      }
      for (const Value& v : rhs.AsList()) {
        if (lhs.Equals(v)) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case BinaryOp::kAdd: {
      if (lhs.type() == ValueType::kString ||
          rhs.type() == ValueType::kString) {
        auto text = [](const Value& v) {
          return v.type() == ValueType::kString ? v.AsString() : v.ToString();
        };
        return Value::String(text(lhs) + text(rhs));
      }
      [[fallthrough]];
    }
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      PROMETHEUS_ASSIGN_OR_RETURN(double a, lhs.ToNumeric());
      PROMETHEUS_ASSIGN_OR_RETURN(double b, rhs.ToNumeric());
      const bool ints = lhs.type() == ValueType::kInt &&
                        rhs.type() == ValueType::kInt;
      switch (op) {
        case BinaryOp::kAdd:
          return ints ? Value::Int(lhs.AsInt() + rhs.AsInt())
                      : Value::Double(a + b);
        case BinaryOp::kSub:
          return ints ? Value::Int(lhs.AsInt() - rhs.AsInt())
                      : Value::Double(a - b);
        case BinaryOp::kMul:
          return ints ? Value::Int(lhs.AsInt() * rhs.AsInt())
                      : Value::Double(a * b);
        case BinaryOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          return ints ? Value::Int(lhs.AsInt() / rhs.AsInt())
                      : Value::Double(a / b);
        default:
          if (!ints) return Status::TypeError("'%' requires integers");
          if (rhs.AsInt() == 0) {
            return Status::InvalidArgument("division by zero");
          }
          return Value::Int(lhs.AsInt() % rhs.AsInt());
      }
    }
    default:
      return Status::TypeError("unsupported binary operator");
  }
}

Result<Value> QueryEngine::EvalCall(const Expr& expr,
                                    const Environment& env) const {
  const std::string& fn = expr.name;
  std::vector<Value> args;
  args.reserve(expr.children.size());
  for (const auto& child : expr.children) {
    PROMETHEUS_ASSIGN_OR_RETURN(Value v, Eval(*child, env));
    args.push_back(std::move(v));
  }
  auto want = [&](std::size_t lo, std::size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::InvalidArgument("function '" + fn +
                                     "' called with wrong arity");
    }
    return Status::Ok();
  };
  auto as_ref = [&](std::size_t i) -> Result<Oid> {
    if (args[i].type() != ValueType::kRef) {
      return Status::TypeError("argument " + std::to_string(i + 1) + " of '" +
                               fn + "' must be an object");
    }
    return args[i].AsRef();
  };
  auto as_str = [&](std::size_t i) -> Result<std::string> {
    if (args[i].type() != ValueType::kString) {
      return Status::TypeError("argument " + std::to_string(i + 1) + " of '" +
                               fn + "' must be a string");
    }
    return args[i].AsString();
  };
  auto as_list = [&](std::size_t i) -> Result<Value::List> {
    if (args[i].type() != ValueType::kList) {
      return Status::TypeError("argument " + std::to_string(i + 1) + " of '" +
                               fn + "' must be a list");
    }
    return args[i].AsList();
  };
  auto refs_to_list = [](const std::vector<Oid>& oids) {
    Value::List out;
    out.reserve(oids.size());
    for (Oid o : oids) out.push_back(Value::Ref(o));
    return Value::MakeList(std::move(out));
  };

  // --- collection functions ---
  if (fn == "count") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    return Value::Int(static_cast<std::int64_t>(l.size()));
  }
  if (fn == "exists") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    return Value::Bool(!l.empty());
  }
  if (fn == "first") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    return l.empty() ? Value::Null() : l.front();
  }
  if (fn == "sum" || fn == "avg" || fn == "min" || fn == "max") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    if (l.empty()) return Value::Null();
    if (fn == "min" || fn == "max") {
      Value best = l.front();
      for (std::size_t i = 1; i < l.size(); ++i) {
        PROMETHEUS_ASSIGN_OR_RETURN(int c, l[i].Compare(best));
        if ((fn == "min" && c < 0) || (fn == "max" && c > 0)) best = l[i];
      }
      return best;
    }
    double total = 0;
    for (const Value& v : l) {
      PROMETHEUS_ASSIGN_OR_RETURN(double d, v.ToNumeric());
      total += d;
    }
    if (fn == "avg") return Value::Double(total / l.size());
    // sum of ints stays int.
    bool all_int = std::all_of(l.begin(), l.end(), [](const Value& v) {
      return v.type() == ValueType::kInt;
    });
    return all_int ? Value::Int(static_cast<std::int64_t>(total))
                   : Value::Double(total);
  }
  if (fn == "flatten") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    Value::List out;
    for (const Value& v : l) {
      if (v.type() == ValueType::kList) {
        out.insert(out.end(), v.AsList().begin(), v.AsList().end());
      } else if (!v.is_null()) {
        out.push_back(v);
      }
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "distinct") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    Value::List out;
    for (const Value& v : l) {
      bool dup = std::any_of(out.begin(), out.end(),
                             [&](const Value& o) { return o.Equals(v); });
      if (!dup) out.push_back(v);
    }
    return Value::MakeList(std::move(out));
  }

  // --- string functions ---
  if (fn == "lower" || fn == "upper") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string s, as_str(0));
    for (char& c : s) {
      c = fn == "lower" ? static_cast<char>(std::tolower(c))
                        : static_cast<char>(std::toupper(c));
    }
    return Value::String(std::move(s));
  }
  if (fn == "length") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    if (args[0].type() == ValueType::kList) {
      return Value::Int(static_cast<std::int64_t>(args[0].AsList().size()));
    }
    PROMETHEUS_ASSIGN_OR_RETURN(std::string s, as_str(0));
    return Value::Int(static_cast<std::int64_t>(s.size()));
  }
  if (fn == "substr") {
    // substr(s, start, len): clamped to the string's bounds.
    PROMETHEUS_RETURN_IF_ERROR(want(3, 3));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string s, as_str(0));
    if (args[1].type() != ValueType::kInt ||
        args[2].type() != ValueType::kInt) {
      return Status::TypeError("substr bounds must be integers");
    }
    std::int64_t start = std::max<std::int64_t>(0, args[1].AsInt());
    std::int64_t len = std::max<std::int64_t>(0, args[2].AsInt());
    if (static_cast<std::size_t>(start) >= s.size()) {
      return Value::String("");
    }
    return Value::String(s.substr(static_cast<std::size_t>(start),
                                  static_cast<std::size_t>(len)));
  }
  if (fn == "starts_with" || fn == "ends_with") {
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string s, as_str(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string p, as_str(1));
    if (p.size() > s.size()) return Value::Bool(false);
    bool match = fn == "starts_with" ? s.compare(0, p.size(), p) == 0
                                     : s.compare(s.size() - p.size(),
                                                 p.size(), p) == 0;
    return Value::Bool(match);
  }

  // --- object / schema functions ---
  if (fn == "class_of") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    if (const Object* obj = view().GetObject(oid)) {
      return Value::String(obj->cls->name());
    }
    if (const Link* link = view().GetLink(oid)) {
      return Value::String(link->def->name());
    }
    return Value::Null();
  }
  if (fn == "is_a") {
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string cls, as_str(1));
    return Value::Bool(view().IsInstanceOf(oid, cls));
  }
  if (fn == "oid") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    return Value::Int(static_cast<std::int64_t>(oid));
  }
  if (fn == "extent") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, as_str(0));
    if (view().FindClass(name) != nullptr) {
      return refs_to_list(view().Extent(name));
    }
    if (view().FindRelationship(name) != nullptr) {
      return refs_to_list(view().LinkExtent(name));
    }
    return Status::NotFound("no extent named '" + name + "'");
  }
  if (fn == "attr") {
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, as_str(1));
    return MemberOf(oid, name);
  }

  // --- synonym functions (4.5) ---
  if (fn == "canonical") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    return Value::Ref(view().CanonicalOf(oid));
  }
  if (fn == "synonyms") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    return refs_to_list(view().SynonymSet(oid));
  }
  if (fn == "are_synonyms") {
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid a, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid b, as_ref(1));
    return Value::Bool(view().AreSynonyms(a, b));
  }

  // --- graph functions (5.1.1.3) ---
  auto parse_dir = [&](std::size_t i) -> Result<Direction> {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string d, as_str(i));
    if (d == "out") return Direction::kOut;
    if (d == "in") return Direction::kIn;
    if (d == "both") return Direction::kBoth;
    return Status::InvalidArgument("direction must be 'out', 'in' or 'both'");
  };
  auto opt_context = [&](std::size_t i) -> Result<Oid> {
    if (i >= args.size() || args[i].is_null()) return kNullOid;
    if (args[i].type() != ValueType::kRef) {
      return Status::TypeError("context argument must be an object");
    }
    return args[i].AsRef();
  };
  if (fn == "traverse") {
    // traverse(start, 'rel', min, max [, dir] [, context])
    PROMETHEUS_RETURN_IF_ERROR(want(4, 6));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid start, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
    if (args[2].type() != ValueType::kInt ||
        args[3].type() != ValueType::kInt) {
      return Status::TypeError("traverse depths must be integers");
    }
    Direction dir = Direction::kOut;
    std::size_t ctx_arg = 4;
    if (args.size() >= 5 && args[4].type() == ValueType::kString) {
      PROMETHEUS_ASSIGN_OR_RETURN(dir, parse_dir(4));
      ctx_arg = 5;
    }
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(ctx_arg));
    PROMETHEUS_ASSIGN_OR_RETURN(
        std::vector<Oid> oids,
        view().Traverse(start, rel, static_cast<std::uint32_t>(args[2].AsInt()),
                      static_cast<std::uint32_t>(args[3].AsInt()), dir, ctx));
    return refs_to_list(oids);
  }
  if (fn == "children" || fn == "parents") {
    // children(obj, 'rel' [, context])
    PROMETHEUS_RETURN_IF_ERROR(want(2, 3));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid obj, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(2));
    Direction dir = fn == "children" ? Direction::kOut : Direction::kIn;
    return refs_to_list(view().Neighbors(obj, rel, dir, ctx));
  }
  if (fn == "leaves") {
    // leaves(obj, 'rel' [, context]): descendants (or obj) with no children.
    PROMETHEUS_RETURN_IF_ERROR(want(2, 3));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid obj, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(2));
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<Oid> all,
                                view().Traverse(obj, rel, 0, 0,
                                              Direction::kOut, ctx));
    std::vector<Oid> leaves;
    for (Oid o : all) {
      if (view().Neighbors(o, rel, Direction::kOut, ctx).empty()) {
        leaves.push_back(o);
      }
    }
    return refs_to_list(leaves);
  }
  if (fn == "links") {
    // links(obj, 'rel'|null, 'out'|'in'|'both' [, context]) -> link objects.
    PROMETHEUS_RETURN_IF_ERROR(want(3, 4));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid obj, as_ref(0));
    const RelationshipDef* def = nullptr;
    if (!args[1].is_null()) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
      def = view().FindRelationship(rel);
      if (def == nullptr) {
        return Status::NotFound("unknown relationship '" + rel + "'");
      }
    }
    PROMETHEUS_ASSIGN_OR_RETURN(Direction dir, parse_dir(2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(3));
    return refs_to_list(view().IncidentLinks(obj, dir, def, ctx));
  }
  if (fn == "in_context") {
    // in_context(classification) -> the classification's links.
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, as_ref(0));
    return refs_to_list(view().LinksInContext(ctx));
  }
  if (fn == "reachable") {
    // reachable(from, to, 'rel' [, context]) -> bool.
    PROMETHEUS_RETURN_IF_ERROR(want(3, 4));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid from, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid to, as_ref(1));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(3));
    PROMETHEUS_ASSIGN_OR_RETURN(
        std::vector<Oid> oids,
        view().Traverse(from, rel, 1, 0, Direction::kOut, ctx));
    return Value::Bool(std::find(oids.begin(), oids.end(), to) !=
                       oids.end());
  }

  if (fn == "path") {
    // path(from, to, 'rel' [, context]) -> shortest path as a list of
    // objects including both endpoints; empty when unreachable.
    PROMETHEUS_RETURN_IF_ERROR(want(3, 4));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid from, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid to, as_ref(1));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(3));
    if (view().FindRelationship(rel) == nullptr) {
      return Status::NotFound("unknown relationship '" + rel + "'");
    }
    std::unordered_map<Oid, Oid> parent;
    std::vector<Oid> frontier{from};
    parent[from] = from;
    bool found = from == to;
    while (!found && !frontier.empty()) {
      std::vector<Oid> next;
      for (Oid cur : frontier) {
        for (Oid n : view().Neighbors(cur, rel, Direction::kOut, ctx)) {
          if (parent.count(n)) continue;
          parent[n] = cur;
          if (n == to) {
            found = true;
            break;
          }
          next.push_back(n);
        }
        if (found) break;
      }
      frontier = std::move(next);
    }
    Value::List out;
    if (found) {
      std::vector<Oid> chain;
      for (Oid cur = to;; cur = parent[cur]) {
        chain.push_back(cur);
        if (cur == from) break;
      }
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        out.push_back(Value::Ref(*it));
      }
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "subgraph") {
    // subgraph(start, 'rel' [, context]) -> the links of the graph
    // reachable downward from start (parameterised graph extraction,
    // thesis 5.1.1.3): the classification subtree as an entity.
    PROMETHEUS_RETURN_IF_ERROR(want(2, 3));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid start, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(2));
    const RelationshipDef* def = view().FindRelationship(rel);
    if (def == nullptr) {
      return Status::NotFound("unknown relationship '" + rel + "'");
    }
    Value::List out;
    std::unordered_set<Oid> visited{start};
    std::vector<Oid> frontier{start};
    while (!frontier.empty()) {
      Oid cur = frontier.back();
      frontier.pop_back();
      for (Oid lid : view().IncidentLinks(cur, Direction::kOut, def, ctx)) {
        const Link* link = view().GetLink(lid);
        out.push_back(Value::Ref(lid));
        if (visited.insert(link->target).second) {
          frontier.push_back(link->target);
        }
      }
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "union_of" || fn == "intersect" || fn == "minus") {
    // OQL-style set operations over lists (duplicates removed).
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List a, as_list(0));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List b, as_list(1));
    auto contains = [](const Value::List& l, const Value& v) {
      return std::any_of(l.begin(), l.end(),
                         [&](const Value& x) { return x.Equals(v); });
    };
    Value::List out;
    auto push_unique = [&](const Value& v) {
      if (!contains(out, v)) out.push_back(v);
    };
    if (fn == "union_of") {
      for (const Value& v : a) push_unique(v);
      for (const Value& v : b) push_unique(v);
    } else if (fn == "intersect") {
      for (const Value& v : a) {
        if (contains(b, v)) push_unique(v);
      }
    } else {
      for (const Value& v : a) {
        if (!contains(b, v)) push_unique(v);
      }
    }
    return Value::MakeList(std::move(out));
  }
  return Status::NotFound("unknown function '" + fn + "'");
}

Result<Value> QueryEngine::EvalGrouped(
    const Expr& expr, const std::vector<Environment>& group) const {
  if (group.empty()) return Value::Null();
  switch (expr.kind) {
    case ExprKind::kCall: {
      const std::string& fn = expr.name;
      if ((fn == "count" || fn == "sum" || fn == "min" || fn == "max" ||
           fn == "avg") &&
          expr.children.size() == 1) {
        // Aggregate the argument across the group's bindings.
        std::vector<Value> values;
        values.reserve(group.size());
        for (const Environment& env : group) {
          PROMETHEUS_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], env));
          if (!v.is_null()) values.push_back(std::move(v));
        }
        if (fn == "count") {
          return Value::Int(static_cast<std::int64_t>(values.size()));
        }
        if (values.empty()) return Value::Null();
        if (fn == "min" || fn == "max") {
          Value best = values.front();
          for (std::size_t i = 1; i < values.size(); ++i) {
            PROMETHEUS_ASSIGN_OR_RETURN(int c, values[i].Compare(best));
            if ((fn == "min" && c < 0) || (fn == "max" && c > 0)) {
              best = values[i];
            }
          }
          return best;
        }
        double total = 0;
        bool all_int = true;
        for (const Value& v : values) {
          PROMETHEUS_ASSIGN_OR_RETURN(double d, v.ToNumeric());
          total += d;
          all_int = all_int && v.type() == ValueType::kInt;
        }
        if (fn == "avg") return Value::Double(total / values.size());
        return all_int ? Value::Int(static_cast<std::int64_t>(total))
                       : Value::Double(total);
      }
      // Non-aggregate calls evaluate under the group's representative.
      return Eval(expr, group.front());
    }
    case ExprKind::kBinary: {
      if (expr.binary_op == BinaryOp::kAnd ||
          expr.binary_op == BinaryOp::kOr) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value lv,
                                    EvalGrouped(*expr.children[0], group));
        PROMETHEUS_ASSIGN_OR_RETURN(bool lb, Truthy(lv));
        if (expr.binary_op == BinaryOp::kAnd && !lb) {
          return Value::Bool(false);
        }
        if (expr.binary_op == BinaryOp::kOr && lb) return Value::Bool(true);
        PROMETHEUS_ASSIGN_OR_RETURN(Value rv,
                                    EvalGrouped(*expr.children[1], group));
        PROMETHEUS_ASSIGN_OR_RETURN(bool rb, Truthy(rv));
        return Value::Bool(rb);
      }
      PROMETHEUS_ASSIGN_OR_RETURN(Value lhs,
                                  EvalGrouped(*expr.children[0], group));
      PROMETHEUS_ASSIGN_OR_RETURN(Value rhs,
                                  EvalGrouped(*expr.children[1], group));
      return ApplyBinaryOp(expr.binary_op, lhs, rhs);
    }
    case ExprKind::kUnary: {
      PROMETHEUS_ASSIGN_OR_RETURN(Value operand,
                                  EvalGrouped(*expr.children[0], group));
      if (expr.unary_op == UnaryOp::kNot) {
        PROMETHEUS_ASSIGN_OR_RETURN(bool b, Truthy(operand));
        return Value::Bool(!b);
      }
      PROMETHEUS_ASSIGN_OR_RETURN(double d, operand.ToNumeric());
      if (operand.type() == ValueType::kInt) {
        return Value::Int(-operand.AsInt());
      }
      return Value::Double(-d);
    }
    default:
      // Group-constant expressions (the group-by keys themselves, paths
      // over them, literals) evaluate under the representative binding.
      return Eval(expr, group.front());
  }
}

// ----------------------------------------------------------------- queries

struct QueryEngine::RangeBinding {
  const FromRange* range;
  std::vector<Value> candidates;  ///< for extent ranges (pre-computed)
  std::string strategy;           ///< access path chosen (profiling)
};

std::shared_ptr<const cache::PlanEntry> QueryEngine::BuildPlanEntry(
    std::shared_ptr<const SelectQuery> ast) const {
  auto entry = std::make_shared<cache::PlanEntry>();
  // Read only by an engine with indexes, or by one sharing its plan cache.
  if (indexes_ != nullptr || plan_cache_ != nullptr) {
    entry->eq_conjuncts = EqConjuncts(*ast);
  }
  entry->ast = std::move(ast);
  return entry;
}

const cache::PlanEntry::EqConjunct* QueryEngine::IndexedConjunct(
    const cache::PlanEntry& plan, const FromRange& range) const {
  if (indexes_ == nullptr) return nullptr;
  auto it = plan.eq_conjuncts.find(&range);
  if (it == plan.eq_conjuncts.end()) return nullptr;
  for (const cache::PlanEntry::EqConjunct& cand : it->second) {
    if (view().HasIndex(range.source_name, cand.attribute)) return &cand;
  }
  return nullptr;
}

Result<std::vector<Value>> QueryEngine::RangeCandidates(
    const FromRange& range, std::string* strategy,
    const cache::PlanEntry& plan) const {
  auto refs = [](const std::vector<Oid>& oids) {
    std::vector<Value> out;
    out.reserve(oids.size());
    for (Oid o : oids) out.push_back(Value::Ref(o));
    return out;
  };
  const std::string& name = range.source_name;
  const EngineMetrics& metrics = EngineMetrics::Get();
  // Virtual system-catalog range: materialize a point-in-time row set (at
  // most once per top-level execution, via the thread's CatalogScope). No
  // index ever applies; rows are structs, not refs.
  if (SystemCatalog::IsCatalogName(name)) {
    if (catalog_ == nullptr || !catalog_->Has(name)) {
      return Status::NotFound("no system catalog class named '" + name + "'");
    }
    if (strategy != nullptr) *strategy = "catalog materialization of " + name;
    if (g_catalog_scope != nullptr) {
      auto it = g_catalog_scope->materialized.find(name);
      if (it != g_catalog_scope->materialized.end()) return it->second;
    }
    metrics.catalog_materializations->Increment();
    std::vector<Value> rows = catalog_->Materialize(name);
    if (g_catalog_scope != nullptr) {
      g_catalog_scope->materialized.emplace(name, rows);
    }
    return rows;
  }
  const bool is_class = view().FindClass(name) != nullptr;
  if (!is_class && view().FindRelationship(name) == nullptr) {
    return Status::NotFound("no extent named '" + name + "'");
  }
  // Index optimization (6.1.5.2/3): when the where clause contains a
  // conjunct `var.attr = literal` with an index on (class, attr), replace
  // the extent scan by an index lookup. The view carries its own epoch's
  // indexes, so the lookup answers exactly what a scan of it would.
  if (const cache::PlanEntry::EqConjunct* cand =
          is_class ? IndexedConjunct(plan, range) : nullptr) {
    PROMETHEUS_ASSIGN_OR_RETURN(
        std::vector<Oid> oids,
        view().Lookup(name, cand->attribute, cand->literal->literal));
    metrics.index_lookups->Increment();
    ExtentHeat::Instance().RecordIndexHit(name, oids.size());
    if (strategy != nullptr) {
      *strategy = "index lookup on " + name + "." + cand->attribute;
    }
    return refs(oids);
  }
  metrics.extent_scans->Increment();
  if (strategy != nullptr) {
    *strategy = std::string("extent scan of ") +
                (is_class ? "class " : "relationship ") + name;
  }
  std::vector<Oid> oids = is_class ? view().Extent(name) : view().LinkExtent(name);
  ExtentHeat::Instance().RecordScan(name, oids.size());
  return refs(oids);
}

Result<std::string> QueryEngine::Explain(const std::string& query) const {
  PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<SelectQuery> parsed,
                              ParseQuery(query));
  const std::shared_ptr<const cache::PlanEntry> plan =
      BuildPlanEntry(std::move(parsed));
  const SelectQuery& ast = *plan->ast;
  std::string out;
  for (const FromRange& range : ast.from) {
    out += range.variable;
    out += ": ";
    if (range.source_expr != nullptr) {
      out += "dependent expression (evaluated per outer binding)";
    } else if (SystemCatalog::IsCatalogName(range.source_name)) {
      if (catalog_ == nullptr || !catalog_->Has(range.source_name)) {
        return Status::NotFound("no system catalog class named '" +
                                range.source_name + "'");
      }
      out += "catalog materialization of " + range.source_name;
    } else if (view().FindClass(range.source_name) != nullptr) {
      if (const cache::PlanEntry::EqConjunct* cand =
              IndexedConjunct(*plan, range)) {
        out += "index lookup on " + range.source_name + "." + cand->attribute;
      } else {
        out += "extent scan of class " + range.source_name;
      }
    } else if (view().FindRelationship(range.source_name) != nullptr) {
      out += "extent scan of relationship " + range.source_name;
    } else {
      return Status::NotFound("no extent named '" + range.source_name + "'");
    }
    out += "\n";
  }
  if (!ast.group_by.empty()) out += "group by: hash grouping\n";
  if (!ast.order_by.empty()) out += "order by: sort\n";
  return out;
}

Result<ResultSet> QueryEngine::Execute(const SelectQuery& query,
                                       const Environment& outer,
                                       const ExecutionContext* ctx) const {
  cache::PlanEntry plan;  // the analysis of a subquery's borrowed AST
  if (indexes_ != nullptr) plan.eq_conjuncts = EqConjuncts(query);
  return ExecuteInternal(query, outer, nullptr, ctx, plan);
}

Result<ResultSet> QueryEngine::ExecuteInternal(const SelectQuery& query,
                                               const Environment& outer,
                                               obs::TraceNode* trace,
                                               const ExecutionContext* ctx,
                                               const cache::PlanEntry& plan)
    const {
  // Const-execution contract: this path never mutates the database. When
  // the thread reads through a pinned snapshot the epoch is immutable by
  // construction; the live database is read only by the thread that
  // writes it, so no write section can complete during the run. An epoch
  // change here means another thread committed while this one read the
  // live database instead of a snapshot.
#ifndef NDEBUG
  const std::uint64_t epoch_at_entry = view().epoch();
#endif
  if (query.from.empty()) {
    return Status::ParseError("query requires at least one range");
  }
  // One catalog materialization per top-level query (no-op when a scope is
  // already active, i.e. for subqueries and dependent ranges).
  ScopedCatalogScope catalog_scope;
  // Plan stage: pre-compute extent candidates (dependent ranges evaluate
  // per binding) and order the join. Built as a local node and attached
  // when complete, so sibling spans never invalidate it.
  obs::TraceNode plan_node("plan");
  obs::SpanTimer plan_span(trace != nullptr ? &plan_node : nullptr);
  std::vector<RangeBinding> ranges;
  ranges.reserve(query.from.size());
  for (const FromRange& r : query.from) {
    RangeBinding rb;
    rb.range = &r;
    if (r.source_expr == nullptr) {
      PROMETHEUS_ASSIGN_OR_RETURN(
          rb.candidates,
          RangeCandidates(r, trace != nullptr ? &rb.strategy : nullptr,
                          plan));
    } else {
      rb.strategy = "dependent expression (evaluated per outer binding)";
    }
    ranges.push_back(std::move(rb));
  }

  // Join-order optimisation (6.1.5.3): drive the nested loops with the
  // most selective extent ranges first. Dependent ranges wait until every
  // range variable their expression references is bound.
  {
    auto references = [](const Expr* e, const std::string& var) {
      std::function<bool(const Expr*)> walk = [&](const Expr* node) -> bool {
        if (node->kind == ExprKind::kVariable && node->name == var) {
          return true;
        }
        for (const auto& child : node->children) {
          if (walk(child.get())) return true;
        }
        return false;
      };
      return walk(e);
    };
    std::vector<RangeBinding> ordered;
    std::vector<bool> placed(ranges.size(), false);
    std::unordered_set<std::string> bound;
    while (ordered.size() < ranges.size()) {
      // Prefer the eligible extent range with the fewest candidates;
      // otherwise the first eligible dependent range.
      std::size_t best = ranges.size();
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (placed[i]) continue;
        const RangeBinding& rb = ranges[i];
        if (rb.range->source_expr != nullptr) {
          bool ready = true;
          for (const RangeBinding& other : ranges) {
            if (other.range == rb.range) continue;
            if (!bound.count(other.range->variable) &&
                references(rb.range->source_expr.get(),
                           other.range->variable)) {
              ready = false;
              break;
            }
          }
          if (!ready) continue;
          // A dependent range is only chosen when no extent range is
          // available (they usually shrink with more bindings).
          if (best == ranges.size()) best = i;
          continue;
        }
        if (best == ranges.size() ||
            ranges[best].range->source_expr != nullptr ||
            rb.candidates.size() < ranges[best].candidates.size()) {
          best = i;
        }
      }
      if (best == ranges.size()) {
        return Status::InvalidArgument(
            "circular dependency between from-ranges");
      }
      placed[best] = true;
      bound.insert(ranges[best].range->variable);
      ordered.push_back(std::move(ranges[best]));
    }
    ranges = std::move(ordered);
  }
  plan_span.Stop();
  if (trace != nullptr) {
    for (const RangeBinding& rb : ranges) {
      obs::TraceNode* child = plan_node.AddChild("range " + rb.range->variable);
      child->detail = rb.strategy;
      if (rb.range->source_expr == nullptr) {
        child->rows = static_cast<std::int64_t>(rb.candidates.size());
      }
    }
    trace->children.push_back(std::move(plan_node));
  }

  ResultSet result;
  if (query.select_star) {
    for (const FromRange& r : query.from) result.columns.push_back(r.variable);
  } else {
    for (std::size_t i = 0; i < query.items.size(); ++i) {
      const SelectItem& item = query.items[i];
      result.columns.push_back(
          item.alias.empty() ? "col" + std::to_string(i + 1) : item.alias);
    }
  }

  // Rows paired with their order-by key tuple.
  std::vector<std::pair<Value::List, std::vector<Value>>> keyed_rows;
  Environment env = outer;
  const bool grouped = !query.group_by.empty();
  if (grouped && query.select_star) {
    return Status::ParseError("'select *' cannot be combined with group by");
  }

  /// Bindings enumerated by the join loops — the query's "rows scanned"
  /// cardinality (profile + metrics).
  std::uint64_t scanned = 0;

  /// Runs the nested-loop join; `emit` is called once per binding that
  /// passes the where clause.
  std::function<Status(std::size_t, const std::function<Status()>&)>
      recurse = [&](std::size_t depth,
                    const std::function<Status()>& emit) -> Status {
    if (depth == ranges.size()) {
      if (query.where != nullptr) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value cond, Eval(*query.where, env));
        PROMETHEUS_ASSIGN_OR_RETURN(bool pass, Truthy(cond));
        if (!pass) return Status::Ok();
      }
      return emit();
    }
    RangeBinding& rb = ranges[depth];
    const std::vector<Value>* candidates = &rb.candidates;
    std::vector<Value> dynamic;
    if (rb.range->source_expr != nullptr) {
      PROMETHEUS_ASSIGN_OR_RETURN(Value src,
                                  Eval(*rb.range->source_expr, env));
      if (src.type() != ValueType::kList) {
        return Status::TypeError("range expression for '" +
                                 rb.range->variable +
                                 "' must produce a list");
      }
      dynamic = src.AsList();
      candidates = &dynamic;
    }
    for (const Value& v : *candidates) {
      // Cooperative deadline / cancellation: one check per enumerated
      // binding bounds the abort latency by a single binding's work
      // (including its subqueries and the emit path).
      if (ctx != nullptr) PROMETHEUS_RETURN_IF_ERROR(ctx->Check());
      ++scanned;
      env[rb.range->variable] = v;
      PROMETHEUS_RETURN_IF_ERROR(recurse(depth + 1, emit));
    }
    env.erase(rb.range->variable);
    return Status::Ok();
  };

  obs::TraceNode exec_node("execute");
  obs::SpanTimer exec_span(trace != nullptr ? &exec_node : nullptr);

  if (grouped) {
    // Group the bindings by the group-by key, then evaluate the select
    // list (and having / order by) once per group, aggregate-aware.
    std::vector<std::string> group_order;
    std::unordered_map<std::string, std::vector<Environment>> groups;
    PROMETHEUS_RETURN_IF_ERROR(recurse(0, [&]() -> Status {
      std::string key;
      for (const auto& expr : query.group_by) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, Eval(*expr, env));
        std::string part = v.IndexKey();
        key += std::to_string(part.size());
        key += ':';
        key += part;
      }
      auto [it, fresh] = groups.try_emplace(key);
      if (fresh) group_order.push_back(key);
      it->second.push_back(env);
      return Status::Ok();
    }));
    for (const std::string& key : group_order) {
      const std::vector<Environment>& group = groups[key];
      if (query.having != nullptr) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value cond,
                                    EvalGrouped(*query.having, group));
        PROMETHEUS_ASSIGN_OR_RETURN(bool pass, Truthy(cond));
        if (!pass) continue;
      }
      std::vector<Value> row;
      for (const SelectItem& item : query.items) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, EvalGrouped(*item.expr, group));
        row.push_back(std::move(v));
      }
      Value::List order_key;
      for (const SelectQuery::OrderKey& key : query.order_by) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value v,
                                    EvalGrouped(*key.expr, group));
        order_key.push_back(std::move(v));
      }
      keyed_rows.emplace_back(std::move(order_key), std::move(row));
    }
  } else {
    PROMETHEUS_RETURN_IF_ERROR(recurse(0, [&]() -> Status {
      std::vector<Value> row;
      if (query.select_star) {
        for (const FromRange& r : query.from) row.push_back(env[r.variable]);
      } else {
        for (const SelectItem& item : query.items) {
          PROMETHEUS_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, env));
          row.push_back(std::move(v));
        }
      }
      Value::List key;
      for (const SelectQuery::OrderKey& ok : query.order_by) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, Eval(*ok.expr, env));
        key.push_back(std::move(v));
      }
      keyed_rows.emplace_back(std::move(key), std::move(row));
      return Status::Ok();
    }));
  }
  exec_span.Stop();
  if (trace != nullptr) {
    exec_node.detail = std::to_string(scanned) + " bindings scanned";
    exec_node.rows = static_cast<std::int64_t>(keyed_rows.size());
    trace->children.push_back(std::move(exec_node));
  }

  obs::TraceNode sort_node("sort");
  obs::SpanTimer sort_span(
      trace != nullptr && !query.order_by.empty() ? &sort_node : nullptr);
  if (!query.order_by.empty()) {
    // Lexicographic multi-key sort, each key with its own direction.
    std::stable_sort(
        keyed_rows.begin(), keyed_rows.end(),
        [&](const auto& a, const auto& b) {
          for (std::size_t k = 0; k < query.order_by.size(); ++k) {
            if (k >= a.first.size() || k >= b.first.size()) break;
            auto c = a.first[k].Compare(b.first[k]);
            if (!c.ok() || c.value() == 0) continue;  // tie or incomparable
            return query.order_by[k].desc ? c.value() > 0 : c.value() < 0;
          }
          return false;
        });
  }
  sort_span.Stop();
  if (trace != nullptr && !query.order_by.empty()) {
    sort_node.detail = std::to_string(query.order_by.size()) + " key(s)";
    sort_node.rows = static_cast<std::int64_t>(keyed_rows.size());
    trace->children.push_back(std::move(sort_node));
  }

  obs::TraceNode project_node("project");
  obs::SpanTimer project_span(trace != nullptr ? &project_node : nullptr);
  std::vector<std::string> seen;  // distinct keys, sorted for binary search
  for (auto& [key, row] : keyed_rows) {
    if (query.distinct) {
      std::string k;
      for (const Value& v : row) {
        std::string part = v.IndexKey();
        k += std::to_string(part.size());
        k += ':';
        k += part;
      }
      auto it = std::lower_bound(seen.begin(), seen.end(), k);
      if (it != seen.end() && *it == k) continue;
      seen.insert(it, k);
    }
    result.rows.push_back(std::move(row));
    if (query.limit >= 0 &&
        result.rows.size() >= static_cast<std::size_t>(query.limit)) {
      break;
    }
  }
  project_span.Stop();
  if (trace != nullptr) {
    project_node.detail = query.distinct ? "distinct" : "";
    if (query.limit >= 0) {
      if (!project_node.detail.empty()) project_node.detail += ", ";
      project_node.detail += "limit " + std::to_string(query.limit);
    }
    project_node.rows = static_cast<std::int64_t>(result.rows.size());
    trace->children.push_back(std::move(project_node));
  }

  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.rows_scanned->Increment(scanned);
  metrics.rows_returned->Increment(result.rows.size());
  assert(view().epoch() == epoch_at_entry &&
         "a write committed during a live-database query — concurrent "
         "readers must pin a snapshot (Database::AcquireSnapshot)");
  return result;
}

}  // namespace prometheus::pool
