#ifndef PROMETHEUS_STORAGE_SNAPSHOT_H_
#define PROMETHEUS_STORAGE_SNAPSHOT_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/database.h"

namespace prometheus::storage {

class Env;

/// Serialises a Value into the storage wire format (type tag +
/// length-prefixed payload; lists recurse), appending to `*out`. Numbers
/// go through `std::to_chars`, so the bytes never depend on the locale.
void AppendValue(std::string* out, const Value& value);
std::string EncodeValue(const Value& value);

/// Parses a Value from `text` starting at `*pos`; advances `*pos`. All
/// parsing in this layer is exception-free: corrupt bytes yield a clean
/// `kIoError`, never a throw.
Result<Value> DecodeValue(std::string_view text, std::size_t* pos);

/// Records shared by snapshots and journals:
///   CLASS/TMPL/REL — schema definitions
///   OBJ/LINK   — full object / link state (used for creations)
///   SETA/SETL  — single attribute updates
///   DELO/DELL  — deletions
///   SYN        — synonym declaration
///   END        — end of stream
/// String fields are length-prefixed and may hold any byte, newlines
/// included. `SchemaRecords` renders the CLASS/TMPL/REL prologue as one
/// string per record; `AppendObjectRecord` / `AppendLinkRecord` append one
/// instance (nothing when it is absent); `ApplyRecord` parses and applies
/// any record to a database (with semantic checks suspended — records
/// describe already-validated history).
std::vector<std::string> SchemaRecords(const Database& db);
void AppendObjectRecord(std::string* out, const Database& db, Oid oid);
void AppendLinkRecord(std::string* out, const Database& db, Oid oid);
std::string ObjectRecord(const Database& db, Oid oid);
std::string LinkRecord(const Database& db, Oid oid);
/// A SETA / SETL record (`tag`) setting attribute `name` of `oid`.
std::string SetRecord(std::string_view tag, Oid oid, std::string_view name,
                      const Value& value);
/// Render one schema entity by name (empty string when absent) — the
/// journal uses these to make runtime DDL durable as it happens.
std::string ClassRecord(const Database& db, const std::string& name);
std::string TemplateRecord(const Database& db, const std::string& name);
std::string RelationshipRecord(const Database& db, const std::string& name);

/// Applies one record. Returns true in `*end` for the END record.
/// DELO/DELL of already-absent targets are ignored (cascades may have
/// removed them first).
Status ApplyRecord(Database* db, std::string_view record, bool* end);

/// The one walk behind snapshots and the journal prologue: schema
/// records, then objects (contexts are objects, so link records resolve),
/// links and synonym edges, each added to `*buf` by `frame` (as a line or
/// as a journal frame). Whenever `*buf` reaches `kWriteChunkBytes` it goes
/// to `sink` and is cleared, so the encoded image never exists whole in
/// memory; what is left at the end is the caller's to finish.
inline constexpr std::size_t kWriteChunkBytes = std::size_t{1} << 20;
using RecordFramer = void (*)(std::string* buf, std::string_view record);
using ChunkSink = std::function<Status(std::string_view chunk)>;
Status StreamRecords(const Database& db, RecordFramer frame, std::string* buf,
                     const ChunkSink& sink);

/// The storage substrate (the role POET played under the thesis'
/// prototype): full-database snapshots.
///
/// `SaveSnapshot` writes schema, all live objects and links (with their
/// classification contexts and attributes) and the synonym sets.
/// `LoadSnapshot` restores them into an *empty* database, preserving every
/// Oid, so persisted references stay valid across processes.
///
/// Durability contract:
///  - The path overloads write atomically: the snapshot is streamed to
///    `<path>.tmp` in `kWriteChunkBytes` pieces, fsynced, then renamed over
///    `path` — a crash mid-save never damages an existing snapshot at
///    `path`.
///  - `LoadSnapshot` reads the stream into one buffer and parses every
///    record through to END *before* applying anything, so a truncated or
///    malformed snapshot reports `kIoError` and leaves the target database
///    untouched.
Status SaveSnapshot(const Database& db, const std::string& path);
Status SaveSnapshot(const Database& db, const std::string& path, Env* env);
Status SaveSnapshot(const Database& db, std::ostream& out);
Status LoadSnapshot(Database* db, const std::string& path);
Status LoadSnapshot(Database* db, std::istream& in);

}  // namespace prometheus::storage

#endif  // PROMETHEUS_STORAGE_SNAPSHOT_H_
