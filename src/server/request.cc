#include "server/request.h"

namespace prometheus::server {

Request Request::Query(std::string pool_text) {
  Request r;
  r.kind = RequestKind::kQuery;
  r.query = std::move(pool_text);
  return r;
}

Request Request::Health() {
  Request r;
  r.kind = RequestKind::kHealth;
  // Health probes are how operators look at an overloaded server: let them
  // jump the queue ahead of the load they are diagnosing.
  r.priority = Priority::kHigh;
  return r;
}

Request Request::CreateObject(std::string class_name,
                              std::vector<AttrInit> inits) {
  Request r;
  r.kind = RequestKind::kMutation;
  r.mutation.kind = MutationOp::Kind::kCreateObject;
  r.mutation.type_name = std::move(class_name);
  r.mutation.inits = std::move(inits);
  return r;
}

Request Request::SetAttribute(Oid oid, std::string attribute, Value value) {
  Request r;
  r.kind = RequestKind::kMutation;
  r.mutation.kind = MutationOp::Kind::kSetAttribute;
  r.mutation.target = oid;
  r.mutation.attribute = std::move(attribute);
  r.mutation.value = std::move(value);
  return r;
}

Request Request::DeleteObject(Oid oid) {
  Request r;
  r.kind = RequestKind::kMutation;
  r.mutation.kind = MutationOp::Kind::kDeleteObject;
  r.mutation.target = oid;
  return r;
}

Request Request::CreateLink(std::string rel_name, Oid source, Oid dest,
                            Oid context, std::vector<AttrInit> inits) {
  Request r;
  r.kind = RequestKind::kMutation;
  r.mutation.kind = MutationOp::Kind::kCreateLink;
  r.mutation.type_name = std::move(rel_name);
  r.mutation.source = source;
  r.mutation.dest = dest;
  r.mutation.context = context;
  r.mutation.inits = std::move(inits);
  return r;
}

Request Request::SetLinkAttribute(Oid oid, std::string attribute,
                                  Value value) {
  Request r;
  r.kind = RequestKind::kMutation;
  r.mutation.kind = MutationOp::Kind::kSetLinkAttribute;
  r.mutation.target = oid;
  r.mutation.attribute = std::move(attribute);
  r.mutation.value = std::move(value);
  return r;
}

Request Request::DeleteLink(Oid oid) {
  Request r;
  r.kind = RequestKind::kMutation;
  r.mutation.kind = MutationOp::Kind::kDeleteLink;
  r.mutation.target = oid;
  return r;
}

Request Request::Custom(std::function<Status(Database&)> fn) {
  Request r;
  r.kind = RequestKind::kMutation;
  r.mutation.kind = MutationOp::Kind::kCustom;
  r.mutation.custom = std::move(fn);
  return r;
}

Request Request::Checkpoint() {
  Request r;
  r.kind = RequestKind::kMutation;
  r.mutation.kind = MutationOp::Kind::kCheckpoint;
  // The re-arm path must beat the backlog it is meant to clear.
  r.priority = Priority::kHigh;
  return r;
}

Request Request::CacheControl(CacheOp op) {
  Request r;
  r.kind = RequestKind::kCacheControl;
  r.cache_op = op;
  // Like kHealth: an operator inspecting (or clearing) the cache under
  // load should not queue behind the load itself.
  r.priority = Priority::kHigh;
  return r;
}

}  // namespace prometheus::server
