#include "storage/snapshot.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <numeric>
#include <type_traits>

#include "storage/fault.h"

namespace prometheus::storage {

namespace {

constexpr char kMagic[] = "PROMETHEUS-SNAPSHOT-1";

/// Caps speculative `reserve` calls driven by untrusted length fields so a
/// corrupt count cannot trigger a huge allocation; vectors still grow
/// normally if the data really is that large.
constexpr std::size_t kMaxReserve = 1024;

// ---- encoding: direct appends, locale-independent numbers ----

/// A length-prefixed string field: "<n>:<bytes>".
struct Str {
  std::string_view s;
};

/// Appends record fields to a string. Numbers go through `std::to_chars`,
/// so the bytes never depend on the global locale.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}
  Writer& operator<<(char c) { return Put({&c, 1}); }
  Writer& operator<<(const char* s) { return Put(s); }
  Writer& operator<<(bool b) { return Put(b ? "1" : "0"); }
  Writer& operator<<(Str s) { return (*this << s.s.size()).Put(":").Put(s.s); }
  Writer& operator<<(const Value& v) {
    AppendValue(out_, v);
    return *this;
  }
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  Writer& operator<<(Int n) {
    char buf[24];
    return Put({buf, std::to_chars(buf, buf + sizeof(buf), n).ptr});
  }
  /// A number as a tagged length-prefixed field ("i4:1753").
  template <typename Number, typename... Format>
  Writer& Boxed(char tag, Number n, Format... format) {
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof(buf), n, format...).ptr;
    return *this << tag << Str{{buf, static_cast<std::size_t>(end - buf)}};
  }

 private:
  Writer& Put(std::string_view s) {
    out_->append(s);
    return *this;
  }

  std::string* out_;
};

void WriteAttributeDefs(Writer& w, const std::vector<AttributeDef>& attrs) {
  w << ' ' << attrs.size();
  for (const AttributeDef& a : attrs) {
    w << ' ' << Str{a.name} << ' ' << static_cast<int>(a.type) << ' '
      << Str{a.ref_class} << ' ' << a.default_value;
  }
}

void WriteSemantics(Writer& w, const RelationshipSemantics& sem) {
  w << static_cast<int>(sem.kind) << ' ' << sem.exclusive << ' '
    << Str{sem.exclusivity_group} << ' ' << sem.shareable << ' '
    << sem.lifetime_dependent << ' ' << sem.constant << ' '
    << sem.inherit_attributes << ' ' << sem.directed << ' ' << sem.max_out
    << ' ' << sem.max_in << ' ' << sem.min_out << ' ' << sem.min_in;
}

/// " <count>" then " <name> <value>" per attribute, sorted by name — the
/// on-disk order, independent of the in-memory slot layout.
void WriteSortedAttributes(Writer& w,
                           const std::vector<const AttributeDef*>& slots,
                           const std::vector<Value>& attrs) {
  thread_local std::vector<std::uint32_t> order;
  order.resize(attrs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&slots](auto a, auto b) {
    return slots[a]->name < slots[b]->name;
  });
  w << ' ' << attrs.size();
  for (std::uint32_t slot : order) {
    w << ' ' << Str{slots[slot]->name} << ' ' << attrs[slot];
  }
}

// ---- exception-free parsing (corrupt input must never throw) ----

template <typename Number>
Result<Number> ParseNumber(std::string_view word) {
  Number value{};
  const char* end = word.data() + word.size();
  auto [ptr, ec] = std::from_chars(word.data(), end, value);
  if (ec != std::errc() || ptr != end || word.empty()) {
    return Status::IoError("corrupt record: bad number '" + std::string(word) +
                           "'");
  }
  return value;
}

Result<std::string_view> DecodeString(std::string_view text,
                                      std::size_t* pos) {
  std::size_t colon = text.find(':', *pos);
  if (colon == std::string_view::npos) {
    return Status::IoError("corrupt record: missing string length");
  }
  std::size_t len = 0;
  if (colon == *pos) {
    return Status::IoError("corrupt record: empty string length");
  }
  for (std::size_t i = *pos; i < colon; ++i) {
    char c = text[i];
    if (c < '0' || c > '9') {
      return Status::IoError("corrupt record: bad string length");
    }
    if (len > (text.size() / 10) + 1) {  // overflow / absurd length guard
      return Status::IoError("corrupt record: oversized string length");
    }
    len = len * 10 + static_cast<std::size_t>(c - '0');
  }
  if (colon + 1 + len > text.size()) {
    return Status::IoError("corrupt record: truncated string");
  }
  *pos = colon + 1 + len;
  return text.substr(colon + 1, len);
}

/// The element count of a list or struct value: "<count>:".
Result<std::uint64_t> DecodeCount(std::string_view text, std::size_t* pos) {
  std::size_t colon = text.find(':', *pos);
  if (colon == std::string_view::npos) {
    return Status::IoError("corrupt record: bad list length");
  }
  PROMETHEUS_ASSIGN_OR_RETURN(
      std::uint64_t count,
      ParseNumber<std::uint64_t>(text.substr(*pos, colon - *pos)));
  *pos = colon + 1;
  return count;
}

/// Reads one record's fields. A record ends at a newline that is not part
/// of a length-prefixed field, or at the end of the text.
struct Cursor {
  std::string_view text;
  std::size_t pos;

  void SkipSpace() {
    while (pos < text.size() && text[pos] == ' ') ++pos;
  }
  bool AtRecordEnd() {
    SkipSpace();
    return pos >= text.size() || text[pos] == '\n';
  }
  std::string_view Word() {
    SkipSpace();
    std::size_t end = pos;
    while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
    std::string_view w = text.substr(pos, end - pos);
    pos = end;
    return w;
  }
  bool Flag() { return Word() == "1"; }
  Result<std::uint64_t> U64() { return ParseNumber<std::uint64_t>(Word()); }
  Result<std::uint32_t> U32() { return ParseNumber<std::uint32_t>(Word()); }
  Result<std::string_view> View() {
    SkipSpace();
    return DecodeString(text, &pos);
  }
  Result<std::string> Str() {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string_view s, View());
    return std::string(s);
  }
  Result<Value> Val() {
    SkipSpace();
    return DecodeValue(text, &pos);
  }
  /// "<count>" then `count` items, each read by `item`.
  template <typename T, typename Fn>
  Result<std::vector<T>> List(Fn item) {
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t count, U64());
    std::vector<T> items;
    items.reserve(count < kMaxReserve ? count : kMaxReserve);
    for (std::uint64_t i = 0; i < count; ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(T v, item());
      items.push_back(std::move(v));
    }
    return items;
  }
  Result<std::vector<std::string>> Names() {
    return List<std::string>([this] { return Str(); });
  }
  /// With `build` false the attributes are only checked, not collected
  /// (the loader's first pass).
  Result<std::vector<AttrInit>> Attrs(bool build) {
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t count, U64());
    std::vector<AttrInit> attrs;
    if (build) attrs.reserve(count < kMaxReserve ? count : kMaxReserve);
    for (std::uint64_t i = 0; i < count; ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string_view name, View());
      PROMETHEUS_ASSIGN_OR_RETURN(Value v, Val());
      if (build) attrs.emplace_back(std::string(name), std::move(v));
    }
    return attrs;
  }
  Result<std::vector<AttributeDef>> AttrDefs() {
    return List<AttributeDef>([this]() -> Result<AttributeDef> {
      AttributeDef attr;
      PROMETHEUS_ASSIGN_OR_RETURN(attr.name, Str());
      PROMETHEUS_ASSIGN_OR_RETURN(std::int64_t type,
                                  ParseNumber<std::int64_t>(Word()));
      attr.type = static_cast<ValueType>(type);
      PROMETHEUS_ASSIGN_OR_RETURN(attr.ref_class, Str());
      PROMETHEUS_ASSIGN_OR_RETURN(attr.default_value, Val());
      return attr;
    });
  }
  Result<std::vector<MethodDef>> Methods() {
    return List<MethodDef>([this]() -> Result<MethodDef> {
      MethodDef method;
      PROMETHEUS_ASSIGN_OR_RETURN(method.name, Str());
      PROMETHEUS_ASSIGN_OR_RETURN(method.return_type, Str());
      using Param = std::pair<std::string, std::string>;
      PROMETHEUS_ASSIGN_OR_RETURN(
          method.parameters, List<Param>([this]() -> Result<Param> {
            PROMETHEUS_ASSIGN_OR_RETURN(std::string type, Str());
            PROMETHEUS_ASSIGN_OR_RETURN(std::string name, Str());
            return Param(std::move(type), std::move(name));
          }));
      return method;
    });
  }
  Result<RelationshipSemantics> Semantics() {
    RelationshipSemantics sem;
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t kind, U64());
    sem.kind = static_cast<RelationshipKind>(kind);
    sem.exclusive = Flag();
    PROMETHEUS_ASSIGN_OR_RETURN(sem.exclusivity_group, Str());
    sem.shareable = Flag();
    sem.lifetime_dependent = Flag();
    sem.constant = Flag();
    sem.inherit_attributes = Flag();
    sem.directed = Flag();
    PROMETHEUS_ASSIGN_OR_RETURN(sem.max_out, U32());
    PROMETHEUS_ASSIGN_OR_RETURN(sem.max_in, U32());
    PROMETHEUS_ASSIGN_OR_RETURN(sem.min_out, U32());
    PROMETHEUS_ASSIGN_OR_RETURN(sem.min_in, U32());
    return sem;
  }
};

/// Parses the record at `cur->pos`, leaving the cursor at its end, and
/// applies it to `db` — or, with a null `db`, only checks that it parses.
Status ParseRecord(Database* db, Cursor* cur, bool* end) {
  *end = false;
  if (cur->AtRecordEnd()) return Status::Ok();  // blank line
  const std::string_view tag = cur->Word();
  if (tag == "END") {
    *end = true;
    return Status::Ok();
  }
  if (tag == "CLASS") {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur->Str());
    const bool is_abstract = cur->Flag();
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<std::string> supers,
                                cur->Names());
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<AttributeDef> attrs,
                                cur->AttrDefs());
    // Method signatures (optional trailing section).
    std::vector<MethodDef> methods;
    if (!cur->AtRecordEnd()) {
      PROMETHEUS_ASSIGN_OR_RETURN(methods, cur->Methods());
    }
    if (db == nullptr) return Status::Ok();
    PROMETHEUS_RETURN_IF_ERROR(
        db->DefineClass(name, supers, std::move(attrs), is_abstract)
            .status());
    for (MethodDef& method : methods) {
      PROMETHEUS_RETURN_IF_ERROR(db->DefineMethod(name, std::move(method)));
    }
    return Status::Ok();
  }
  if (tag == "TMPL") {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur->Str());
    PROMETHEUS_ASSIGN_OR_RETURN(RelationshipSemantics sem, cur->Semantics());
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<AttributeDef> attrs,
                                cur->AttrDefs());
    if (db == nullptr) return Status::Ok();
    return db->DefineRelationshipTemplate(name, sem, std::move(attrs));
  }
  if (tag == "REL") {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur->Str());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string src, cur->Str());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string dst, cur->Str());
    PROMETHEUS_ASSIGN_OR_RETURN(RelationshipSemantics sem, cur->Semantics());
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<std::string> supers,
                                cur->Names());
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<AttributeDef> attrs,
                                cur->AttrDefs());
    if (db == nullptr) return Status::Ok();
    return db->DefineRelationship(name, src, dst, sem, std::move(attrs),
                                  supers)
        .status();
  }
  if (tag == "OBJ") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur->U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string_view cls, cur->View());
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<AttrInit> attrs,
                                cur->Attrs(db != nullptr));
    if (db == nullptr) return Status::Ok();
    return db->RestoreObjectRaw(oid, std::string(cls), std::move(attrs));
  }
  if (tag == "LINK") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur->U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string_view rel, cur->View());
    PROMETHEUS_ASSIGN_OR_RETURN(Oid src, cur->U64());
    PROMETHEUS_ASSIGN_OR_RETURN(Oid dst, cur->U64());
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, cur->U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<AttrInit> attrs,
                                cur->Attrs(db != nullptr));
    if (db == nullptr) return Status::Ok();
    return db->RestoreLinkRaw(oid, std::string(rel), src, dst, ctx,
                              std::move(attrs));
  }
  if (tag == "SYN") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid child, cur->U64());
    PROMETHEUS_ASSIGN_OR_RETURN(Oid parent, cur->U64());
    if (db == nullptr) return Status::Ok();
    return db->RestoreSynonymRaw(child, parent);
  }
  if (tag == "DELO" || tag == "DELL") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur->U64());
    if (db == nullptr) return Status::Ok();
    if (tag == "DELO") {
      if (db->GetObject(oid) == nullptr) return Status::Ok();  // cascaded
      return db->DeleteObject(oid);
    }
    if (db->GetLink(oid) == nullptr) return Status::Ok();  // cascaded
    return db->DeleteLink(oid);
  }
  if (tag == "SETA" || tag == "SETL") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur->U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur->Str());
    PROMETHEUS_ASSIGN_OR_RETURN(Value v, cur->Val());
    if (db == nullptr) return Status::Ok();
    return tag == "SETA" ? db->SetAttribute(oid, name, std::move(v))
                         : db->SetLinkAttribute(oid, name, std::move(v));
  }
  return Status::IoError("unknown record '" + std::string(tag) + "'");
}

void AppendLine(std::string* buf, std::string_view record) {
  buf->append(record);
  *buf += '\n';
}

/// Magic line, every record as a line, END — in bounded chunks.
Status WriteSnapshot(const Database& db, const ChunkSink& sink) {
  std::string buf;
  buf.reserve(kWriteChunkBytes + kWriteChunkBytes / 16);
  buf.append(kMagic).append("\n");
  PROMETHEUS_RETURN_IF_ERROR(StreamRecords(db, AppendLine, &buf, sink));
  return sink(buf.append("END\n"));
}

/// The whole stream in one buffer, sized up front when the stream can
/// seek (files, string streams).
std::string ReadAll(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start == std::istream::pos_type(-1) || !in.seekg(0, std::ios::end)) {
    in.clear();
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  std::string text(static_cast<std::size_t>(in.tellg() - start), '\0');
  in.seekg(start);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return text;
}

}  // namespace

void AppendValue(std::string* out, const Value& value) {
  Writer w(out);
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w << 'b' << value.AsBool();
      return;
    case ValueType::kInt:
      w.Boxed('i', value.AsInt());
      return;
    case ValueType::kDouble:  // "%.17g": round-trips every double
      w.Boxed('d', value.AsDouble(), std::chars_format::general, 17);
      return;
    case ValueType::kString:
      w << 's' << Str{value.AsString()};
      return;
    case ValueType::kRef:
      w.Boxed('r', value.AsRef());
      return;
    case ValueType::kList:
      w << 'l' << value.AsList().size() << ':';
      for (const Value& v : value.AsList()) w << v;
      return;
    case ValueType::kStruct:
      w << 't' << value.AsStruct().size() << ':';
      for (const auto& [name, v] : value.AsStruct()) w << Str{name} << v;
      return;
  }
  w << 'n';
}

std::string EncodeValue(const Value& value) {
  std::string out;
  AppendValue(&out, value);
  return out;
}

Result<Value> DecodeValue(std::string_view text, std::size_t* pos) {
  if (*pos >= text.size()) {
    return Status::IoError("corrupt record: truncated value");
  }
  char tag = text[(*pos)++];
  switch (tag) {
    case 'n':
      return Value::Null();
    case 'b': {
      if (*pos >= text.size()) {
        return Status::IoError("corrupt record: truncated bool");
      }
      char b = text[(*pos)++];
      return Value::Bool(b == '1');
    }
    case 'i': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string_view s, DecodeString(text, pos));
      PROMETHEUS_ASSIGN_OR_RETURN(std::int64_t v,
                                  ParseNumber<std::int64_t>(s));
      return Value::Int(v);
    }
    case 'd': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string_view s, DecodeString(text, pos));
      PROMETHEUS_ASSIGN_OR_RETURN(double v, ParseNumber<double>(s));
      return Value::Double(v);
    }
    case 's': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string_view s, DecodeString(text, pos));
      return Value::String(std::string(s));
    }
    case 'r': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string_view s, DecodeString(text, pos));
      PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t v,
                                  ParseNumber<std::uint64_t>(s));
      return Value::Ref(v);
    }
    case 'l': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t count, DecodeCount(text, pos));
      Value::List items;
      items.reserve(count < kMaxReserve ? count : kMaxReserve);
      for (std::size_t i = 0; i < count; ++i) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, DecodeValue(text, pos));
        items.push_back(std::move(v));
      }
      return Value::MakeList(std::move(items));
    }
    case 't': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t count, DecodeCount(text, pos));
      Value::Struct fields;
      fields.reserve(count < kMaxReserve ? count : kMaxReserve);
      for (std::size_t i = 0; i < count; ++i) {
        PROMETHEUS_ASSIGN_OR_RETURN(std::string_view name,
                                    DecodeString(text, pos));
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, DecodeValue(text, pos));
        fields.emplace_back(std::string(name), std::move(v));
      }
      return Value::MakeStruct(std::move(fields));
    }
    default:
      return Status::IoError("corrupt record: unknown value tag");
  }
}

std::string ClassRecord(const Database& db, const std::string& name) {
  const ClassDef* cls = db.FindClass(name);
  if (cls == nullptr) return "";
  std::string out;
  Writer w(&out);
  w << "CLASS " << Str{cls->name()} << ' ' << cls->is_abstract() << ' '
    << cls->supers().size();
  for (const ClassDef* s : cls->supers()) w << ' ' << Str{s->name()};
  WriteAttributeDefs(w, cls->attributes());
  const std::vector<MethodDef>& methods = db.Methods(cls);
  w << ' ' << methods.size();
  for (const MethodDef& m : methods) {
    w << ' ' << Str{m.name} << ' ' << Str{m.return_type} << ' '
      << m.parameters.size();
    for (const auto& [type, pname] : m.parameters) {
      w << ' ' << Str{type} << ' ' << Str{pname};
    }
  }
  return out;
}

std::string TemplateRecord(const Database& db, const std::string& name) {
  const RelationshipSemantics* sem = db.FindTemplateSemantics(name);
  const std::vector<AttributeDef>* attrs = db.FindTemplateAttributes(name);
  if (sem == nullptr || attrs == nullptr) return "";
  std::string out;
  Writer w(&out);
  w << "TMPL " << Str{name} << ' ';
  WriteSemantics(w, *sem);
  WriteAttributeDefs(w, *attrs);
  return out;
}

std::string RelationshipRecord(const Database& db, const std::string& name) {
  const RelationshipDef* rel = db.FindRelationship(name);
  if (rel == nullptr) return "";
  std::string out;
  Writer w(&out);
  w << "REL " << Str{rel->name()} << ' ' << Str{rel->source_class()->name()}
    << ' ' << Str{rel->target_class()->name()} << ' ';
  WriteSemantics(w, rel->semantics());
  w << ' ' << rel->supers().size();
  for (const RelationshipDef* s : rel->supers()) w << ' ' << Str{s->name()};
  WriteAttributeDefs(w, rel->attributes());
  return out;
}

std::vector<std::string> SchemaRecords(const Database& db) {
  std::vector<std::string> records;
  for (const ClassDef* cls : db.classes()) {
    records.push_back(ClassRecord(db, cls->name()));
  }
  for (const std::string& name : db.relationship_templates()) {
    std::string record = TemplateRecord(db, name);
    if (!record.empty()) records.push_back(std::move(record));
  }
  for (const RelationshipDef* rel : db.relationships()) {
    records.push_back(RelationshipRecord(db, rel->name()));
  }
  return records;
}

void AppendObjectRecord(std::string* out, const Database& db, Oid oid) {
  const Object* obj = db.GetObject(oid);
  if (obj == nullptr) return;
  Writer w(out);
  w << "OBJ " << oid << ' ' << Str{obj->cls->name()};
  WriteSortedAttributes(w, obj->cls->slots(), obj->attrs);
}

void AppendLinkRecord(std::string* out, const Database& db, Oid oid) {
  const Link* link = db.GetLink(oid);
  if (link == nullptr) return;
  Writer w(out);
  w << "LINK " << oid << ' ' << Str{link->def->name()} << ' ' << link->source
    << ' ' << link->target << ' ' << link->context;
  WriteSortedAttributes(w, link->def->slots(), link->attrs);
}

std::string ObjectRecord(const Database& db, Oid oid) {
  std::string out;
  AppendObjectRecord(&out, db, oid);
  return out;
}

std::string LinkRecord(const Database& db, Oid oid) {
  std::string out;
  AppendLinkRecord(&out, db, oid);
  return out;
}

std::string SetRecord(std::string_view tag, Oid oid, std::string_view name,
                      const Value& value) {
  std::string out(tag);
  Writer(&out) << ' ' << oid << ' ' << Str{name} << ' ' << value;
  return out;
}

Status ApplyRecord(Database* db, std::string_view record, bool* end) {
  Cursor cur{record, 0};
  return ParseRecord(db, &cur, end);
}

Status StreamRecords(const Database& db, RecordFramer frame, std::string* buf,
                     const ChunkSink& sink) {
  std::string record;
  auto emit = [&]() -> Status {
    frame(buf, record);
    record.clear();
    if (buf->size() < kWriteChunkBytes) return Status::Ok();
    Status st = sink(*buf);
    buf->clear();
    return st;
  };
  for (std::string& schema : SchemaRecords(db)) {
    record = std::move(schema);
    PROMETHEUS_RETURN_IF_ERROR(emit());
  }
  const std::vector<const ClassDef*> classes = db.classes();
  for (const ClassDef* cls : classes) {
    for (Oid oid : db.Extent(cls->name(), /*include_subclasses=*/false)) {
      AppendObjectRecord(&record, db, oid);
      PROMETHEUS_RETURN_IF_ERROR(emit());
    }
  }
  for (const RelationshipDef* rel : db.relationships()) {
    for (Oid oid :
         db.LinkExtent(rel->name(), /*include_subrelationships=*/false)) {
      AppendLinkRecord(&record, db, oid);
      PROMETHEUS_RETURN_IF_ERROR(emit());
    }
  }
  for (const ClassDef* cls : classes) {
    for (Oid oid : db.Extent(cls->name(), /*include_subclasses=*/false)) {
      const Oid root = db.CanonicalOf(oid);
      if (root == oid) continue;
      Writer(&record) << "SYN " << oid << ' ' << root;
      PROMETHEUS_RETURN_IF_ERROR(emit());
    }
  }
  return Status::Ok();
}

Status SaveSnapshot(const Database& db, std::ostream& out) {
  PROMETHEUS_RETURN_IF_ERROR(WriteSnapshot(db, [&out](std::string_view chunk) {
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    return out.good() ? Status::Ok() : Status::IoError("write failure");
  }));
  out.flush();
  return out.good() ? Status::Ok() : Status::IoError("write failure");
}

Status SaveSnapshot(const Database& db, const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  // Write-to-temp + fsync + rename, so a crash at any point leaves an
  // existing snapshot at `path` intact.
  const std::string tmp = path + ".tmp";
  {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                                env->NewWritableFile(tmp, /*truncate=*/true));
    Status st = WriteSnapshot(db, [&file](std::string_view chunk) {
      return file->Append(chunk);
    });
    if (st.ok()) st = file->Sync();
    Status close = file->Close();
    if (st.ok()) st = close;
    if (!st.ok()) {
      (void)env->RemoveFile(tmp);
      return st;
    }
  }
  Status st = env->RenameFile(tmp, path);
  if (!st.ok()) {
    (void)env->RemoveFile(tmp);
    return st;
  }
  std::string dir = ".";
  if (std::size_t slash = path.find_last_of('/'); slash != std::string::npos) {
    dir = path.substr(0, slash == 0 ? 1 : slash);
  }
  return env->SyncDir(dir);
}

Status SaveSnapshot(const Database& db, const std::string& path) {
  return SaveSnapshot(db, path, nullptr);
}

Status LoadSnapshot(Database* db, std::istream& in) {
  if (!db->classes().empty() || db->object_count() != 0) {
    return Status::FailedPrecondition(
        "snapshots load into an empty database");
  }
  const std::string text = ReadAll(in);
  const std::string_view magic(kMagic);
  if (text.compare(0, magic.size(), magic) != 0 ||
      text.size() <= magic.size() || text[magic.size()] != '\n') {
    return Status::IoError("not a Prometheus snapshot");
  }
  // Pass one (no database) parses every record through to END, pass two
  // applies them: a truncated or malformed snapshot leaves `db` untouched.
  // Records are split by their length-prefixed fields, never by lines, so
  // string values may hold newlines.
  for (Database* target : {static_cast<Database*>(nullptr), db}) {
    bool end = false;
    for (Cursor cur{text, magic.size() + 1}; !end; ++cur.pos) {
      if (cur.pos >= text.size()) {
        return Status::IoError("truncated snapshot (no END record)");
      }
      Status st = ParseRecord(target, &cur, &end);
      if (st.ok() && !cur.AtRecordEnd()) {
        st = Status::IoError("corrupt record: trailing bytes");
      }
      if (st.ok()) continue;
      // Surface every corruption as kIoError; the message keeps the
      // underlying cause. The database may hold a partial prefix — callers
      // that need atomicity load into a scratch database (DurableStore does).
      if (st.code() == Status::Code::kIoError) return st;
      return Status::IoError("corrupt snapshot record: " + st.ToString());
    }
  }
  return Status::Ok();
}

Status LoadSnapshot(Database* db, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  return LoadSnapshot(db, in);
}

}  // namespace prometheus::storage
