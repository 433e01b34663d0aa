/**
 * @file
 * Tracelet JSONL export -- rockvm trace schema v1.
 *
 * One line per emitted tracelet (vm::TraceRecord), so dynamic traces
 * stream, concatenate, and grep like any JSONL corpus (the format the
 * ML-assisted directions in PAPERS.md consume as training data):
 *
 *   {"rockvm_tracelet":1,"entry":4096,"opaque":1,"type":1048592,
 *    "events":[["C",2,0],["R",4,0]]}
 *
 * Fields:
 *  - rockvm_tracelet: schema version tag, always 1;
 *  - entry:  address of the entry function of the run;
 *  - opaque: concrete value substituted for unset entry arguments;
 *  - type:   attributed vtable address, 0 when the tracelet stayed
 *            untyped;
 *  - events: the tracelet, each event a [kind, index, aux] triple
 *            with kind one of "C" (VirtCall), "R" (ReadField),
 *            "W" (WriteField), "this" (PassedThis), "arg"
 *            (PassedArg), "ret" (Returned), "call" (CallDirect) --
 *            the paper's Table 1 notation.
 *
 * Write-only: rockvm exports, nothing here reads traces back. The
 * tests pin the schema by parsing the output with obs::Json.
 */
#pragma once

#include <string>

#include "vm/vm.h"

namespace rock::vm {

/** One schema-v1 line for @p record (no trailing newline). */
std::string to_jsonl(const TraceRecord& record);

/** Every record of @p result, one newline-terminated line each. */
std::string to_jsonl(const VmResult& result);

} // namespace rock::vm
