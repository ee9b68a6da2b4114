#include "storage/snapshot.h"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "storage/fault.h"

namespace prometheus::storage {

namespace {

constexpr char kMagic[] = "PROMETHEUS-SNAPSHOT-1";

/// Caps speculative `reserve` calls driven by untrusted length fields so a
/// corrupt count cannot trigger a huge allocation; vectors still grow
/// normally if the data really is that large.
constexpr std::size_t kMaxReserve = 1024;

// ---- exception-free numeric parsing (corrupt input must never throw) ----

Status BadNumber(const std::string& word) {
  return Status::IoError("corrupt record: bad number '" + word + "'");
}

Result<std::uint64_t> ParseU64(const std::string& word) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(word.data(), word.data() + word.size(),
                                   value);
  if (ec != std::errc() || ptr != word.data() + word.size() || word.empty()) {
    return BadNumber(word);
  }
  return value;
}

Result<std::int64_t> ParseI64(const std::string& word) {
  std::int64_t value = 0;
  auto [ptr, ec] = std::from_chars(word.data(), word.data() + word.size(),
                                   value);
  if (ec != std::errc() || ptr != word.data() + word.size() || word.empty()) {
    return BadNumber(word);
  }
  return value;
}

Result<double> ParseDouble(const std::string& word) {
  if (word.empty()) return BadNumber(word);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(word.c_str(), &end);
  if (end != word.c_str() + word.size() || errno == ERANGE) {
    return BadNumber(word);
  }
  return value;
}

/// Length-prefixed string: "<n>:<bytes>".
std::string EncodeString(const std::string& s) {
  return std::to_string(s.size()) + ":" + s;
}

Result<std::string> DecodeString(const std::string& text, std::size_t* pos) {
  std::size_t colon = text.find(':', *pos);
  if (colon == std::string::npos) {
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
  std::string out = text.substr(colon + 1, len);
  *pos = colon + 1 + len;
  return out;
}

/// An object's or link's attributes sorted by name, the on-disk order
/// (independent of the in-memory slot layout).
template <typename Record>
std::map<std::string, Value> Sorted(const Record& rec) {
  std::map<std::string, Value> out;
  ForEachAttribute(rec, [&out](const std::string& name, const Value& value) {
    out.emplace(name, value);
  });
  return out;
}

void WriteAttributeDef(std::ostream& out, const AttributeDef& attr) {
  out << " " << EncodeString(attr.name) << " " << static_cast<int>(attr.type)
      << " " << EncodeString(attr.ref_class) << " "
      << EncodeValue(attr.default_value);
}

Result<AttributeDef> ReadAttributeDef(const std::string& line,
                                      std::size_t* pos) {
  auto skip_space = [&] {
    while (*pos < line.size() && line[*pos] == ' ') ++(*pos);
  };
  AttributeDef attr;
  skip_space();
  PROMETHEUS_ASSIGN_OR_RETURN(attr.name, DecodeString(line, pos));
  skip_space();
  std::size_t end = line.find(' ', *pos);
  if (end == std::string::npos) {
    return Status::IoError("corrupt record: attribute type");
  }
  PROMETHEUS_ASSIGN_OR_RETURN(std::int64_t type,
                              ParseI64(line.substr(*pos, end - *pos)));
  attr.type = static_cast<ValueType>(type);
  *pos = end;
  skip_space();
  PROMETHEUS_ASSIGN_OR_RETURN(attr.ref_class, DecodeString(line, pos));
  skip_space();
  PROMETHEUS_ASSIGN_OR_RETURN(attr.default_value, DecodeValue(line, pos));
  return attr;
}

struct LineCursor;
Result<RelationshipSemantics> ReadSemantics(LineCursor* cur);

/// Cursor helpers for reading a record line after its tag.
struct LineCursor {
  const std::string& line;
  std::size_t pos;

  void SkipSpace() {
    while (pos < line.size() && line[pos] == ' ') ++pos;
  }
  std::string Word() {
    SkipSpace();
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    std::string w = line.substr(pos, end - pos);
    pos = end;
    return w;
  }
  Result<std::uint64_t> U64() { return ParseU64(Word()); }
  Result<std::uint32_t> U32() {
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t v, U64());
    if (v > 0xFFFFFFFFull) return Status::IoError("corrupt record: u32 range");
    return static_cast<std::uint32_t>(v);
  }
  Result<std::string> Str() {
    SkipSpace();
    return DecodeString(line, &pos);
  }
  Result<Value> Val() {
    SkipSpace();
    return DecodeValue(line, &pos);
  }
  Result<std::vector<AttrInit>> Attrs(std::size_t count) {
    std::vector<AttrInit> attrs;
    attrs.reserve(count < kMaxReserve ? count : kMaxReserve);
    for (std::size_t i = 0; i < count; ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string name, Str());
      PROMETHEUS_ASSIGN_OR_RETURN(Value v, Val());
      attrs.emplace_back(std::move(name), std::move(v));
    }
    return attrs;
  }
};

Result<RelationshipSemantics> ReadSemantics(LineCursor* cur) {
  RelationshipSemantics sem;
  PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t kind, cur->U64());
  sem.kind = static_cast<RelationshipKind>(kind);
  sem.exclusive = cur->Word() == "1";
  PROMETHEUS_ASSIGN_OR_RETURN(sem.exclusivity_group, cur->Str());
  sem.shareable = cur->Word() == "1";
  sem.lifetime_dependent = cur->Word() == "1";
  sem.constant = cur->Word() == "1";
  sem.inherit_attributes = cur->Word() == "1";
  sem.directed = cur->Word() == "1";
  PROMETHEUS_ASSIGN_OR_RETURN(sem.max_out, cur->U32());
  PROMETHEUS_ASSIGN_OR_RETURN(sem.max_in, cur->U32());
  PROMETHEUS_ASSIGN_OR_RETURN(sem.min_out, cur->U32());
  PROMETHEUS_ASSIGN_OR_RETURN(sem.min_in, cur->U32());
  return sem;
}

}  // namespace

std::string EncodeValue(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kBool:
      return value.AsBool() ? "b1" : "b0";
    case ValueType::kInt:
      return "i" + EncodeString(std::to_string(value.AsInt()));
    case ValueType::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << value.AsDouble();
      return "d" + EncodeString(os.str());
    }
    case ValueType::kString:
      return "s" + EncodeString(value.AsString());
    case ValueType::kRef:
      return "r" + EncodeString(std::to_string(value.AsRef()));
    case ValueType::kList: {
      std::string out = "l" + std::to_string(value.AsList().size()) + ":";
      for (const Value& v : value.AsList()) out += EncodeValue(v);
      return out;
    }
    case ValueType::kStruct: {
      std::string out = "t" + std::to_string(value.AsStruct().size()) + ":";
      for (const auto& [name, v] : value.AsStruct()) {
        out += EncodeString(name);
        out += EncodeValue(v);
      }
      return out;
    }
  }
  return "n";
}

Result<Value> DecodeValue(const std::string& text, std::size_t* pos) {
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
      PROMETHEUS_ASSIGN_OR_RETURN(std::string s, DecodeString(text, pos));
      PROMETHEUS_ASSIGN_OR_RETURN(std::int64_t v, ParseI64(s));
      return Value::Int(v);
    }
    case 'd': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string s, DecodeString(text, pos));
      PROMETHEUS_ASSIGN_OR_RETURN(double v, ParseDouble(s));
      return Value::Double(v);
    }
    case 's': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string s, DecodeString(text, pos));
      return Value::String(std::move(s));
    }
    case 'r': {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string s, DecodeString(text, pos));
      PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t v, ParseU64(s));
      return Value::Ref(v);
    }
    case 'l': {
      std::size_t colon = text.find(':', *pos);
      if (colon == std::string::npos) {
        return Status::IoError("corrupt record: bad list length");
      }
      PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t count,
                                  ParseU64(text.substr(*pos, colon - *pos)));
      *pos = colon + 1;
      Value::List items;
      items.reserve(count < kMaxReserve ? count : kMaxReserve);
      for (std::size_t i = 0; i < count; ++i) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, DecodeValue(text, pos));
        items.push_back(std::move(v));
      }
      return Value::MakeList(std::move(items));
    }
    case 't': {
      std::size_t colon = text.find(':', *pos);
      if (colon == std::string::npos) {
        return Status::IoError("corrupt record: bad struct length");
      }
      PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t count,
                                  ParseU64(text.substr(*pos, colon - *pos)));
      *pos = colon + 1;
      Value::Struct fields;
      fields.reserve(count < kMaxReserve ? count : kMaxReserve);
      for (std::size_t i = 0; i < count; ++i) {
        PROMETHEUS_ASSIGN_OR_RETURN(std::string name, DecodeString(text, pos));
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, DecodeValue(text, pos));
        fields.emplace_back(std::move(name), std::move(v));
      }
      return Value::MakeStruct(std::move(fields));
    }
    default:
      return Status::IoError("corrupt record: unknown value tag");
  }
}

namespace {

void WriteSemantics(std::ostream& out, const RelationshipSemantics& sem) {
  out << static_cast<int>(sem.kind) << " " << (sem.exclusive ? 1 : 0) << " "
      << EncodeString(sem.exclusivity_group) << " " << (sem.shareable ? 1 : 0)
      << " " << (sem.lifetime_dependent ? 1 : 0) << " "
      << (sem.constant ? 1 : 0) << " " << (sem.inherit_attributes ? 1 : 0)
      << " " << (sem.directed ? 1 : 0) << " " << sem.max_out << " "
      << sem.max_in << " " << sem.min_out << " " << sem.min_in;
}

}  // namespace

std::string ClassRecord(const Database& db, const std::string& name) {
  const ClassDef* cls = db.FindClass(name);
  if (cls == nullptr) return "";
  std::ostringstream out;
  out << "CLASS " << EncodeString(cls->name()) << " "
      << (cls->is_abstract() ? 1 : 0) << " " << cls->supers().size();
  for (const ClassDef* s : cls->supers()) {
    out << " " << EncodeString(s->name());
  }
  out << " " << cls->attributes().size();
  for (const AttributeDef& a : cls->attributes()) {
    WriteAttributeDef(out, a);
  }
  out << " " << cls->methods().size();
  for (const MethodDef& m : cls->methods()) {
    out << " " << EncodeString(m.name) << " "
        << EncodeString(m.return_type) << " " << m.parameters.size();
    for (const auto& [type, pname] : m.parameters) {
      out << " " << EncodeString(type) << " " << EncodeString(pname);
    }
  }
  return out.str();
}

std::string TemplateRecord(const Database& db, const std::string& name) {
  const RelationshipSemantics* sem = db.FindTemplateSemantics(name);
  const std::vector<AttributeDef>* attrs = db.FindTemplateAttributes(name);
  if (sem == nullptr || attrs == nullptr) return "";
  std::ostringstream out;
  out << "TMPL " << EncodeString(name) << " ";
  WriteSemantics(out, *sem);
  out << " " << attrs->size();
  for (const AttributeDef& a : *attrs) {
    WriteAttributeDef(out, a);
  }
  return out.str();
}

std::string RelationshipRecord(const Database& db, const std::string& name) {
  const RelationshipDef* rel = db.FindRelationship(name);
  if (rel == nullptr) return "";
  std::ostringstream out;
  out << "REL " << EncodeString(rel->name()) << " "
      << EncodeString(rel->source_class()->name()) << " "
      << EncodeString(rel->target_class()->name()) << " ";
  WriteSemantics(out, rel->semantics());
  out << " " << rel->supers().size();
  for (const RelationshipDef* s : rel->supers()) {
    out << " " << EncodeString(s->name());
  }
  out << " " << rel->attributes().size();
  for (const AttributeDef& a : rel->attributes()) {
    WriteAttributeDef(out, a);
  }
  return out.str();
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

Status WriteSchemaRecords(const Database& db, std::ostream& out) {
  for (const std::string& record : SchemaRecords(db)) {
    out << record << "\n";
  }
  if (!out.good()) return Status::IoError("write failure");
  return Status::Ok();
}

std::string ObjectRecord(const Database& db, Oid oid) {
  const Object* obj = db.GetObject(oid);
  if (obj == nullptr) return "";
  std::ostringstream out;
  out << "OBJ " << oid << " " << EncodeString(obj->cls->name()) << " "
      << obj->attrs.size();
  for (const auto& [name, value] : Sorted(*obj)) {
    out << " " << EncodeString(name) << " " << EncodeValue(value);
  }
  return out.str();
}

std::string LinkRecord(const Database& db, Oid oid) {
  const Link* link = db.GetLink(oid);
  if (link == nullptr) return "";
  std::ostringstream out;
  out << "LINK " << oid << " " << EncodeString(link->def->name()) << " "
      << link->source << " " << link->target << " " << link->context << " "
      << link->attrs.size();
  for (const auto& [name, value] : Sorted(*link)) {
    out << " " << EncodeString(name) << " " << EncodeValue(value);
  }
  return out.str();
}

Status ApplyRecord(Database* db, const std::string& line, bool* end) {
  *end = false;
  if (line.empty()) return Status::Ok();
  std::size_t space = line.find(' ');
  std::string tag = space == std::string::npos ? line : line.substr(0, space);
  LineCursor cur{line, space == std::string::npos ? line.size() : space};
  if (tag == "END") {
    *end = true;
    return Status::Ok();
  }
  if (tag == "CLASS") {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur.Str());
    bool is_abstract = cur.Word() == "1";
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nsupers, cur.U64());
    std::vector<std::string> supers;
    supers.reserve(nsupers < kMaxReserve ? nsupers : kMaxReserve);
    for (std::size_t i = 0; i < nsupers; ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string s, cur.Str());
      supers.push_back(std::move(s));
    }
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nattrs, cur.U64());
    std::vector<AttributeDef> attrs;
    attrs.reserve(nattrs < kMaxReserve ? nattrs : kMaxReserve);
    for (std::size_t i = 0; i < nattrs; ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(AttributeDef a,
                                  ReadAttributeDef(line, &cur.pos));
      attrs.push_back(std::move(a));
    }
    PROMETHEUS_RETURN_IF_ERROR(
        db->DefineClass(name, supers, std::move(attrs), is_abstract)
            .status());
    // Method signatures (optional trailing section).
    cur.SkipSpace();
    if (cur.pos < line.size()) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nmethods, cur.U64());
      for (std::size_t i = 0; i < nmethods; ++i) {
        MethodDef method;
        PROMETHEUS_ASSIGN_OR_RETURN(method.name, cur.Str());
        PROMETHEUS_ASSIGN_OR_RETURN(method.return_type, cur.Str());
        PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nparams, cur.U64());
        for (std::size_t p = 0; p < nparams; ++p) {
          PROMETHEUS_ASSIGN_OR_RETURN(std::string type, cur.Str());
          PROMETHEUS_ASSIGN_OR_RETURN(std::string pname, cur.Str());
          method.parameters.emplace_back(std::move(type), std::move(pname));
        }
        PROMETHEUS_RETURN_IF_ERROR(db->DefineMethod(name, std::move(method)));
      }
    }
    return Status::Ok();
  }
  if (tag == "TMPL") {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur.Str());
    PROMETHEUS_ASSIGN_OR_RETURN(RelationshipSemantics sem,
                                ReadSemantics(&cur));
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nattrs, cur.U64());
    std::vector<AttributeDef> attrs;
    attrs.reserve(nattrs < kMaxReserve ? nattrs : kMaxReserve);
    for (std::size_t i = 0; i < nattrs; ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(AttributeDef a,
                                  ReadAttributeDef(line, &cur.pos));
      attrs.push_back(std::move(a));
    }
    return db->DefineRelationshipTemplate(name, sem, std::move(attrs));
  }
  if (tag == "REL") {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur.Str());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string src, cur.Str());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string dst, cur.Str());
    PROMETHEUS_ASSIGN_OR_RETURN(RelationshipSemantics sem,
                                ReadSemantics(&cur));
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nsupers, cur.U64());
    std::vector<std::string> supers;
    supers.reserve(nsupers < kMaxReserve ? nsupers : kMaxReserve);
    for (std::size_t i = 0; i < nsupers; ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string s, cur.Str());
      supers.push_back(std::move(s));
    }
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nattrs, cur.U64());
    std::vector<AttributeDef> attrs;
    attrs.reserve(nattrs < kMaxReserve ? nattrs : kMaxReserve);
    for (std::size_t i = 0; i < nattrs; ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(AttributeDef a,
                                  ReadAttributeDef(line, &cur.pos));
      attrs.push_back(std::move(a));
    }
    return db->DefineRelationship(name, src, dst, sem, std::move(attrs),
                                  supers)
        .status();
  }
  if (tag == "OBJ") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string cls, cur.Str());
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nattrs, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<AttrInit> attrs,
                                cur.Attrs(nattrs));
    return db->RestoreObjectRaw(oid, cls, std::move(attrs));
  }
  if (tag == "LINK") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, cur.Str());
    PROMETHEUS_ASSIGN_OR_RETURN(Oid src, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(Oid dst, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::uint64_t nattrs, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<AttrInit> attrs,
                                cur.Attrs(nattrs));
    return db->RestoreLinkRaw(oid, rel, src, dst, ctx, std::move(attrs));
  }
  if (tag == "SYN") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid child, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(Oid parent, cur.U64());
    return db->RestoreSynonymRaw(child, parent);
  }
  if (tag == "DELO") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur.U64());
    if (db->GetObject(oid) == nullptr) return Status::Ok();  // cascaded
    return db->DeleteObject(oid);
  }
  if (tag == "DELL") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur.U64());
    if (db->GetLink(oid) == nullptr) return Status::Ok();  // cascaded
    return db->DeleteLink(oid);
  }
  if (tag == "SETA") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur.Str());
    PROMETHEUS_ASSIGN_OR_RETURN(Value v, cur.Val());
    return db->SetAttribute(oid, name, std::move(v));
  }
  if (tag == "SETL") {
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, cur.U64());
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, cur.Str());
    PROMETHEUS_ASSIGN_OR_RETURN(Value v, cur.Val());
    return db->SetLinkAttribute(oid, name, std::move(v));
  }
  return Status::IoError("unknown record '" + tag + "'");
}

Status SaveSnapshot(const Database& db, std::ostream& out) {
  out << kMagic << "\n";
  PROMETHEUS_RETURN_IF_ERROR(WriteSchemaRecords(db, out));
  // Objects first (contexts are objects, so link records resolve), then
  // links, then synonym edges.
  for (const ClassDef* cls : db.classes()) {
    for (Oid oid : db.Extent(cls->name(), /*include_subclasses=*/false)) {
      out << ObjectRecord(db, oid) << "\n";
    }
  }
  if (!out.good()) return Status::IoError("write failure");
  for (const RelationshipDef* rel : db.relationships()) {
    for (Oid oid :
         db.LinkExtent(rel->name(), /*include_subrelationships=*/false)) {
      out << LinkRecord(db, oid) << "\n";
    }
  }
  for (const ClassDef* cls : db.classes()) {
    for (Oid oid : db.Extent(cls->name(), /*include_subclasses=*/false)) {
      Oid root = db.CanonicalOf(oid);
      if (root != oid) out << "SYN " << oid << " " << root << "\n";
    }
  }
  out << "END\n";
  out.flush();
  if (!out.good()) return Status::IoError("write failure");
  return Status::Ok();
}

Status SaveSnapshot(const Database& db, const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  // Stage the full snapshot in memory, then write-to-temp + fsync + rename
  // so a crash at any point leaves an existing snapshot at `path` intact.
  std::ostringstream buffer;
  PROMETHEUS_RETURN_IF_ERROR(SaveSnapshot(db, buffer));
  const std::string tmp = path + ".tmp";
  {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                                env->NewWritableFile(tmp, /*truncate=*/true));
    Status st = file->Append(buffer.str());
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
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return Status::IoError("not a Prometheus snapshot");
  }
  // Read the whole stream first and require the END record *before*
  // applying anything: a truncated snapshot must leave `db` untouched.
  std::vector<std::string> lines;
  bool saw_end = false;
  while (!saw_end && std::getline(in, line)) {
    if (line == "END") saw_end = true;
    lines.push_back(std::move(line));
  }
  if (!saw_end) return Status::IoError("truncated snapshot (no END record)");
  bool end = false;
  for (const std::string& record : lines) {
    Status st = ApplyRecord(db, record, &end);
    if (!st.ok()) {
      // Surface every corruption as kIoError; the message keeps the
      // underlying cause. The database may hold a partial prefix — callers
      // that need atomicity load into a scratch database (DurableStore does).
      if (st.code() == Status::Code::kIoError) return st;
      return Status::IoError("corrupt snapshot record: " + st.ToString());
    }
    if (end) break;
  }
  return Status::Ok();
}

Status LoadSnapshot(Database* db, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  return LoadSnapshot(db, in);
}

}  // namespace prometheus::storage
