#include "vm/trace.h"

#include <cstdint>
#include <sstream>

namespace rock::vm {

using analysis::Event;
using analysis::EventKind;

namespace {

const char*
kind_code(EventKind kind)
{
    switch (kind) {
      case EventKind::VirtCall: return "C";
      case EventKind::ReadField: return "R";
      case EventKind::WriteField: return "W";
      case EventKind::PassedThis: return "this";
      case EventKind::PassedArg: return "arg";
      case EventKind::Returned: return "ret";
      case EventKind::CallDirect: return "call";
    }
    return "?";
}

} // namespace

std::string
to_jsonl(const TraceRecord& record)
{
    std::ostringstream out;
    out << "{\"rockvm_tracelet\":1,\"entry\":" << record.entry
        << ",\"opaque\":" << record.opaque
        << ",\"type\":" << record.type << ",\"events\":[";
    for (std::size_t i = 0; i < record.tracelet.size(); ++i) {
        const Event& e = record.tracelet[i];
        if (i)
            out << ",";
        out << "[\"" << kind_code(e.kind) << "\"," << e.index << ","
            << e.aux << "]";
    }
    out << "]}";
    return out.str();
}

std::string
to_jsonl(const VmResult& result)
{
    std::string out;
    for (const TraceRecord& r : result.records) {
        out += to_jsonl(r);
        out += '\n';
    }
    return out;
}

} // namespace rock::vm
