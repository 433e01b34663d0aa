/**
 * @file
 * Object-tracelet events (the paper's Table 1) and the SLM alphabet.
 *
 * A tracelet is a short sequence of events observed on one abstract
 * object along one execution path. Events form the alphabet of the
 * statistical language models: each distinct (kind, index, aux) triple
 * is one symbol.
 */
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rock::analysis {

/** Kinds of events tracked on abstract objects (paper Table 1). */
enum class EventKind : std::uint8_t {
    /** C(i): call through vtable slot i of the object. */
    VirtCall,
    /** R(i): read of the field at byte offset i. */
    ReadField,
    /** W(i): write to the field at byte offset i. */
    WriteField,
    /** this: object passed as `this` to a method/ctor-like callee. */
    PassedThis,
    /** Arg(i): object passed as i-th argument to a function. */
    PassedArg,
    /** ret: object returned from the current function. */
    Returned,
    /** call(f): direct call to concrete function f involving the
     *  object. */
    CallDirect,
};

/** One event. Meaning of index/aux depends on kind:
 *  - VirtCall: index = slot, aux = subobject vptr offset;
 *  - Read/WriteField: index = byte offset;
 *  - PassedArg: index = argument position;
 *  - CallDirect: index = callee address.
 */
struct Event {
    EventKind kind = EventKind::VirtCall;
    std::uint32_t index = 0;
    std::uint32_t aux = 0;

    auto operator<=>(const Event&) const = default;
};

/** A bounded-length sequence of events on one object. */
using Tracelet = std::vector<Event>;

/** Human-readable rendering, e.g. "C(2)" or "call(0x1440)". */
std::string to_string(const Event& event);

/** Render a tracelet as "C(0);W(4);C(1)". */
std::string to_string(const Tracelet& tracelet);

/**
 * Bidirectional mapping between events and dense symbol ids.
 *
 * One Alphabet is shared by every SLM in a reconstruction so that
 * Kullback-Leibler divergences compare like with like.
 */
class Alphabet {
  public:
    /** Id of @p event, interning it when new. */
    int intern(const Event& event);

    /** Id of @p event, or -1 when never interned. */
    int lookup(const Event& event) const;

    /** Event for id @p symbol. */
    const Event& event(int symbol) const;

    /** Number of distinct symbols. */
    int size() const { return static_cast<int>(events_.size()); }

    /** Intern every event of @p tracelet; returns symbol sequence. */
    std::vector<int> intern(const Tracelet& tracelet);

    /** Map @p tracelet without interning; unseen events map to -1. */
    std::vector<int> lookup(const Tracelet& tracelet) const;

    /** Same events under the same ids. */
    bool operator==(const Alphabet&) const = default;

  private:
    std::map<Event, int> ids_;
    std::vector<Event> events_;
};

} // namespace rock::analysis
