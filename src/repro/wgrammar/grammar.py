"""Two-level (van Wijngaarden) grammars.

Paper, Section 5.1.1: "The formal definition of the syntax of data
base schemas is given (...) using W-grammars.  W-grammars (...) go
beyond BNF in that they can express context-sensitive restrictions
(e.g., that all relational program variables in the OPL part of a
schema have been declared in the SCL part)."

A W-grammar has two levels:

* **Metarules** define, for each *metanotion* (conventionally written
  in upper case), a context-free language of *protonotions* (sequences
  of marks).  This implementation also admits *lexical* metanotions
  whose language is given by a regular expression over single marks —
  a pragmatic shortcut for identifier-shaped metanotions that avoids
  spelling names out letter by letter (uniform replacement and
  consistent substitution are unaffected).

* **Hyperrules** are production schemata over *hypernotions* (mixed
  sequences of marks and metanotion references).  *Uniform
  replacement* — substituting each metanotion consistently throughout
  a hyperrule by one value of its language — yields an ordinary
  production; the (generally infinite) set of all such productions is
  the grammar the W-grammar denotes.

Recognition is implemented as a memoized top-down search over ground
*notions*: a nonterminal occurrence must instantiate to a ground
notion by the time it is expanded (metanotions become bound by
matching the rule's left-hand side and by *binding terminals*, which
bind a metanotion to the input mark they consume).  Hyperrules with an
empty right-hand side act as *predicates*: they consume no input and
succeed iff their left-hand side matches — the classical W-grammar
device for context conditions such as ``where NAME in DECLS``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import WGrammarError
from repro.obs.switch import SWITCH

__all__ = [
    "Mark",
    "MetaRef",
    "Terminal",
    "Call",
    "Hyperrule",
    "LexicalMeta",
    "RuleMeta",
    "WGrammar",
]

#: A ground notion: a sequence of marks (atomic strings).
Notion = tuple[str, ...]


@dataclass(frozen=True)
class Mark:
    """A literal mark inside a hypernotion or metarule alternative."""

    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class MetaRef:
    """A reference to a metanotion inside a hypernotion."""

    name: str

    def __str__(self) -> str:
        return self.name


#: One symbol of a pattern: a literal mark or a metanotion reference.
Sym = Mark | MetaRef

#: A hypernotion: a sequence of pattern symbols.
Hypernotion = tuple[Sym, ...]


@dataclass(frozen=True)
class Terminal:
    """A right-hand-side item that consumes one input mark.

    If ``sym`` is a :class:`Mark` the input mark must equal it; if it
    is a :class:`MetaRef` the input mark must belong to the
    metanotion's language and is bound to it (a *binding terminal* —
    how identifier names flow from the input into metanotions).
    """

    sym: Sym


@dataclass(frozen=True)
class Call:
    """A right-hand-side item that derives a nested notion.

    The hypernotion must be ground after substituting the bindings
    accumulated so far (left-to-right).
    """

    hypernotion: Hypernotion


RHSItem = Terminal | Call


@dataclass(frozen=True)
class Hyperrule:
    """One hyperrule ``lhs : rhs .`` of the grammar.

    An empty ``rhs`` makes the rule a predicate (derives the empty
    terminal string).

    Attributes:
        distinct: pairs of metanotion names whose bound values must
            *differ* for the rule to apply — a side condition in the
            style of affix grammars.  (Pure W-grammars express
            inequality by spelling values out mark-by-mark; this
            device keeps the engine's lexical-metanotion shortcut
            consistent, e.g. for the uniqueness half of declaration
            checking.)
    """

    lhs: Hypernotion
    rhs: tuple[RHSItem, ...]
    label: str = ""
    distinct: tuple[tuple[str, str], ...] = ()

    def bindings_admissible(self, bindings: Mapping[str, "Notion"]) -> bool:
        """True iff the side conditions hold under ``bindings``."""
        return all(
            bindings.get(left) != bindings.get(right)
            for left, right in self.distinct
        )

    def __str__(self) -> str:
        lhs = " ".join(str(s) for s in self.lhs)
        parts = []
        for item in self.rhs:
            if isinstance(item, Terminal):
                parts.append(f"'{item.sym}'")
            else:
                parts.append(
                    " ".join(str(s) for s in item.hypernotion)
                )
        return f"{lhs} : {', '.join(parts) or 'EMPTY'} ."


@dataclass(frozen=True)
class LexicalMeta:
    """A metanotion whose values are single marks matching a regex."""

    pattern: str

    def matches_mark(self, mark: str) -> bool:
        """True iff the single mark belongs to the language."""
        return re.fullmatch(self.pattern, mark) is not None


@dataclass(frozen=True)
class RuleMeta:
    """A metanotion defined by context-free metarules.

    Attributes:
        alternatives: each alternative is a sequence of
            :class:`Mark`/:class:`MetaRef` symbols; the empty
            alternative is the empty tuple.
        enumeration: optional explicit candidate values.  A metanotion
            with a non-empty enumeration may appear *unbound* in a
            right-hand-side call: the engine searches over these
            values (bounded nondeterminism — how the RPR grammar
            guesses a declaration's arity before checking it).
    """

    alternatives: tuple[tuple[Sym, ...], ...]
    enumeration: tuple[Notion, ...] = ()


MetaDef = LexicalMeta | RuleMeta


class WGrammar:
    """A W-grammar: metanotion definitions, hyperrules, start notion.

    Args:
        metanotions: definition per metanotion name.
        hyperrules: the hyperrules.
        start: the ground start notion.

    Raises:
        WGrammarError: if a hyperrule references an undefined
            metanotion, or a :class:`Call`'s metanotions cannot all be
            bound by the rule's lhs and earlier binding terminals.
    """

    def __init__(
        self,
        metanotions: Mapping[str, MetaDef],
        hyperrules: list[Hyperrule],
        start: Notion,
    ):
        self.metanotions = dict(metanotions)
        self.hyperrules = list(hyperrules)
        self.start = tuple(start)
        self._check_wellformed()
        self._membership_cache: dict[tuple[str, Notion], bool] = {}
        self._index_rules()

    def _index_rules(self) -> None:
        """Bucket the hyperrules by the first mark of their left-hand
        side: a notion can only match a rule whose lhs starts with its
        own first mark.  A rule whose lhs starts with a metanotion (or
        is empty) goes into every bucket; buckets keep declaration
        order, each rule paired with its declaration index."""
        unindexed: list[tuple[int, Hyperrule]] = []
        buckets: dict[str, list[tuple[int, Hyperrule]]] = {}
        for index, rule in enumerate(self.hyperrules):
            head = rule.lhs[0] if rule.lhs else None
            if isinstance(head, Mark):
                buckets.setdefault(head.text, list(unindexed)).append(
                    (index, rule)
                )
            else:
                unindexed.append((index, rule))
                for bucket in buckets.values():
                    bucket.append((index, rule))
        self._rules_by_mark = {
            mark: tuple(bucket) for mark, bucket in buckets.items()
        }
        self._unindexed_rules = tuple(unindexed)

    def rules_for(self, notion: Notion) -> tuple[tuple[int, Hyperrule], ...]:
        """The ``(declaration index, rule)`` pairs whose left-hand side
        can match ``notion``, in declaration order."""
        if notion:
            return self._rules_by_mark.get(
                notion[0], self._unindexed_rules
            )
        return self._unindexed_rules

    def _check_wellformed(self) -> None:
        for rule in self.hyperrules:
            bound = {
                sym.name for sym in rule.lhs if isinstance(sym, MetaRef)
            }
            for left, right in rule.distinct:
                if left not in bound or right not in bound:
                    raise WGrammarError(
                        f"rule {rule.label or rule}: 'distinct' side "
                        "conditions may only name metanotions bound by "
                        "the lhs"
                    )
            for sym in rule.lhs:
                if isinstance(sym, MetaRef):
                    self._require_meta(sym.name, rule)
            for item in rule.rhs:
                if isinstance(item, Terminal):
                    if isinstance(item.sym, MetaRef):
                        self._require_meta(item.sym.name, rule)
                        bound.add(item.sym.name)
                else:
                    for sym in item.hypernotion:
                        if isinstance(sym, MetaRef):
                            self._require_meta(sym.name, rule)
                            if sym.name not in bound:
                                definition = self.metanotions[sym.name]
                                enumerable = (
                                    isinstance(definition, RuleMeta)
                                    and definition.enumeration
                                )
                                if not enumerable:
                                    raise WGrammarError(
                                        f"rule {rule.label or rule}: "
                                        f"metanotion {sym.name} in a call "
                                        "is not bound by the lhs, an "
                                        "earlier binding terminal, or an "
                                        "enumeration"
                                    )
                                # An enumerated guess binds the
                                # metanotion for the rest of the rule.
                                bound.add(sym.name)

    def _require_meta(self, name: str, rule: Hyperrule) -> None:
        if name not in self.metanotions:
            raise WGrammarError(
                f"rule {rule.label or rule}: undefined metanotion {name}"
            )

    # ------------------------------------------------------------------
    # metanotion language membership
    # ------------------------------------------------------------------
    def member(self, meta: str, segment: Notion) -> bool:
        """Decide whether a mark sequence belongs to the metanotion's
        language."""
        key = (meta, segment)
        cached = self._membership_cache.get(key)
        if cached is not None:
            return cached
        # Occurs-check: while deciding (meta, segment), a recursive
        # query of the very same pair is assumed false (the final
        # answer is a least fixpoint, so this is sound for the
        # monotone membership recursion).
        self._membership_cache[key] = False
        definition = self.metanotions[meta]
        if isinstance(definition, LexicalMeta):
            result = len(segment) == 1 and definition.matches_mark(
                segment[0]
            )
        else:
            result = any(
                self._match_alternative(alternative, segment)
                for alternative in definition.alternatives
            )
        self._membership_cache[key] = result
        return result

    def _match_alternative(
        self, alternative: tuple[Sym, ...], segment: Notion
    ) -> bool:
        if not alternative:
            return not segment
        head, *rest = alternative
        rest = tuple(rest)
        if isinstance(head, Mark):
            return bool(segment) and segment[0] == head.text and (
                self._match_alternative(rest, segment[1:])
            )
        # MetaRef: try every split.
        for cut in range(len(segment) + 1):
            if self.member(head.name, segment[:cut]) and (
                self._match_alternative(rest, segment[cut:])
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # hypernotion matching and instantiation
    # ------------------------------------------------------------------
    def match_lhs(
        self,
        pattern: Hypernotion,
        notion: Notion,
        bindings: dict[str, Notion] | None = None,
    ) -> Iterator[dict[str, Notion]]:
        """Yield every consistent binding with which ``pattern``
        instantiates exactly to ``notion``."""
        yield from self._match(pattern, notion, dict(bindings or {}))

    def _match(
        self,
        pattern: Hypernotion,
        notion: Notion,
        bindings: dict[str, Notion],
    ) -> Iterator[dict[str, Notion]]:
        if not pattern:
            if not notion:
                yield bindings
            return
        head = pattern[0]
        rest = pattern[1:]
        if isinstance(head, Mark):
            if notion and notion[0] == head.text:
                yield from self._match(rest, notion[1:], bindings)
            return
        bound = bindings.get(head.name)
        if bound is not None:
            if notion[: len(bound)] == bound:
                yield from self._match(
                    rest, notion[len(bound):], bindings
                )
            return
        for cut in range(len(notion) + 1):
            segment = notion[:cut]
            coverage = SWITCH.coverage
            if coverage is not None:
                # Usage is recorded at the matcher's membership call
                # sites, never inside member()'s memoized recursion:
                # counts then do not depend on cache warmth.
                coverage.record_metanotion(head.name)
            if self.member(head.name, segment):
                child = dict(bindings)
                child[head.name] = segment
                yield from self._match(rest, notion[cut:], child)

    def instantiate(
        self, hypernotion: Hypernotion, bindings: Mapping[str, Notion]
    ) -> Notion:
        """Apply uniform replacement, producing a ground notion.

        Raises:
            WGrammarError: if a metanotion is unbound.
        """
        out: list[str] = []
        for sym in hypernotion:
            if isinstance(sym, Mark):
                out.append(sym.text)
            else:
                value = bindings.get(sym.name)
                if value is None:
                    raise WGrammarError(
                        f"metanotion {sym.name} unbound during "
                        "instantiation"
                    )
                out.extend(value)
        return tuple(out)

    # ------------------------------------------------------------------
    # recognition
    # ------------------------------------------------------------------
    def recognize(
        self,
        tokens: list[str],
        max_steps: int = 2_000_000,
        counters: dict | None = None,
    ) -> bool:
        """Decide whether the token (mark) sequence is derivable from
        the start notion.

        Args:
            tokens: the input, one mark per token.
            max_steps: abort (raising :class:`WGrammarError`) after
                this many rule tries — W-grammar recognition is
                undecidable in general, so a budget is mandatory.
                Each notion tries only the rules :meth:`rules_for`
                returns.
            counters: optional dict receiving the recognizer's work
                counters (``steps``, ``memo_entries``, ``memo_hits``)
                for the caller to record.
        """
        recognizer = _Recognizer(self, tuple(tokens), max_steps)
        accepted = len(tokens) in recognizer.parse(self.start, 0)
        tracer = SWITCH.tracer
        if tracer is not None:
            tracer.count("wgrammar.steps", recognizer.steps_used)
            tracer.count("wgrammar.memo_entries", len(recognizer._memo))
        if counters is not None:
            counters["steps"] = recognizer.steps_used
            counters["memo_entries"] = len(recognizer._memo)
            counters["memo_hits"] = recognizer.memo_hits
        return accepted

    def generate(
        self,
        lexicon: Mapping[str, list[str]] | None = None,
        max_depth: int = 12,
        max_per_notion: int = 64,
    ) -> frozenset[tuple[str, ...]]:
        """Enumerate terminal strings derivable from the start notion.

        The generative reading of the grammar (bounded): each
        :class:`Call` costs one unit of ``max_depth``; at most
        ``max_per_notion`` distinct strings are kept per derivation
        node, so the result is a *sample* of the language, suitable
        for differential testing against a recognizer or parser.

        Args:
            lexicon: candidate marks for *unbound* binding terminals,
                keyed by metanotion name (e.g. a few identifier names
                for ``NAME``).  Bound binding terminals use their
                bound value; an unbound one with no lexicon entry
                generates nothing.
        """
        generator = _Generator(
            self, dict(lexicon or {}), max_per_notion
        )
        return frozenset(generator.notion(self.start, max_depth))


class _Generator:
    """Bounded breadth enumeration of derivable terminal strings."""

    def __init__(
        self,
        grammar: "WGrammar",
        lexicon: dict[str, list[str]],
        max_per_notion: int,
    ):
        self._grammar = grammar
        self._lexicon = lexicon
        self._cap = max_per_notion
        self._memo: dict[tuple[Notion, int], frozenset] = {}
        self._active: set[tuple[Notion, int]] = set()

    def notion(self, notion: Notion, depth: int) -> frozenset:
        if depth < 0:
            return frozenset()
        key = (notion, depth)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._active:
            return frozenset()
        self._active.add(key)
        out: set[tuple[str, ...]] = set()
        for rule in self._grammar.hyperrules:
            for bindings in self._grammar.match_lhs(rule.lhs, notion):
                if not rule.bindings_admissible(bindings):
                    continue
                out |= self._sequence(
                    rule.rhs, 0, dict(bindings), depth - 1
                )
                if len(out) >= self._cap:
                    break
            if len(out) >= self._cap:
                break
        self._active.discard(key)
        result = frozenset(itertools_islice_set(out, self._cap))
        self._memo[key] = result
        return result

    def _sequence(
        self,
        items: tuple[RHSItem, ...],
        index: int,
        bindings: dict[str, Notion],
        depth: int,
    ) -> set:
        if index == len(items):
            return {()}
        item = items[index]
        if isinstance(item, Terminal):
            if isinstance(item.sym, Mark):
                heads = [item.sym.text]
                tails = self._sequence(
                    items, index + 1, bindings, depth
                )
                return {
                    (head, *tail) for head in heads for tail in tails
                }
            bound = bindings.get(item.sym.name)
            if bound is not None:
                if len(bound) != 1:
                    return set()
                tails = self._sequence(
                    items, index + 1, bindings, depth
                )
                return {(bound[0], *tail) for tail in tails}
            out: set = set()
            for candidate in self._lexicon.get(item.sym.name, ()):
                if not self._grammar.member(
                    item.sym.name, (candidate,)
                ):
                    continue
                child = dict(bindings)
                child[item.sym.name] = (candidate,)
                out |= {
                    (candidate, *tail)
                    for tail in self._sequence(
                        items, index + 1, child, depth
                    )
                }
                if len(out) >= self._cap:
                    break
            return out
        out = set()
        for extended in _enumerate_unbound(
            self._grammar, item.hypernotion, bindings
        ):
            child_notion = self._grammar.instantiate(
                item.hypernotion, extended
            )
            heads = self.notion(child_notion, depth)
            if not heads:
                continue
            tails = self._sequence(items, index + 1, extended, depth)
            for head in heads:
                for tail in tails:
                    out.add((*head, *tail))
                    if len(out) >= self._cap:
                        return out
        return out


def itertools_islice_set(values: set, cap: int):
    """First ``cap`` elements of a set, deterministically ordered."""
    return sorted(values)[:cap]


def _enumerate_unbound(
    grammar: WGrammar,
    hypernotion: Hypernotion,
    bindings: dict[str, Notion],
):
    """Yield binding extensions covering every combination of
    enumerated values for the hypernotion's unbound metanotions.

    Yields ``bindings`` itself (unchanged object) when everything is
    already bound.
    """
    unbound = []
    seen = set()
    for sym in hypernotion:
        if (
            isinstance(sym, MetaRef)
            and sym.name not in bindings
            and sym.name not in seen
        ):
            seen.add(sym.name)
            unbound.append(sym.name)
    if not unbound:
        yield bindings
        return
    spaces = []
    for name in unbound:
        definition = grammar.metanotions[name]
        if not isinstance(definition, RuleMeta) or not (
            definition.enumeration
        ):
            raise WGrammarError(
                f"metanotion {name} is unbound in a call and has no "
                "enumeration"
            )
        spaces.append(definition.enumeration)
    import itertools as _itertools

    for combination in _itertools.product(*spaces):
        extended = dict(bindings)
        extended.update(zip(unbound, combination))
        yield extended


class _Recognizer:
    """Memoized top-down recognizer over ground notions."""

    def __init__(self, grammar: WGrammar, tokens: Notion, max_steps: int):
        self._grammar = grammar
        self._tokens = tokens
        self._max_steps = max_steps
        self._budget = max_steps
        self._memo: dict[tuple[Notion, int], set[int]] = {}
        self._active: set[tuple[Notion, int]] = set()
        #: Lookups answered from the memo table.
        self.memo_hits = 0

    @property
    def steps_used(self) -> int:
        """Rule tries consumed so far out of the initial budget."""
        return self._max_steps - self._budget

    def parse(self, notion: Notion, pos: int) -> set[int]:
        key = (notion, pos)
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        if key in self._active:
            # Left-recursive re-entry: cut the loop (grammars used
            # with this engine must be right-recursive).
            return set()
        self._active.add(key)
        results: set[int] = set()
        for rule_index, rule in self._grammar.rules_for(notion):
            self._budget -= 1
            if self._budget < 0:
                raise WGrammarError(
                    "derivation search budget exhausted; the grammar "
                    "or input is too ambiguous"
                )
            for bindings in self._grammar.match_lhs(rule.lhs, notion):
                if not rule.bindings_admissible(bindings):
                    continue
                coverage = SWITCH.coverage
                if coverage is not None:
                    coverage.record_hyperrule(
                        rule.label or f"rule-{rule_index}"
                    )
                results |= self._sequence(rule.rhs, 0, dict(bindings), pos)
        self._active.discard(key)
        self._memo[key] = results
        return results

    def _sequence(
        self,
        items: tuple[RHSItem, ...],
        index: int,
        bindings: dict[str, Notion],
        pos: int,
    ) -> set[int]:
        if index == len(items):
            return {pos}
        item = items[index]
        if isinstance(item, Terminal):
            if pos >= len(self._tokens):
                return set()
            mark = self._tokens[pos]
            if isinstance(item.sym, Mark):
                if mark != item.sym.text:
                    return set()
                return self._sequence(items, index + 1, bindings, pos + 1)
            bound = bindings.get(item.sym.name)
            if bound is not None:
                if bound != (mark,):
                    return set()
                return self._sequence(items, index + 1, bindings, pos + 1)
            coverage = SWITCH.coverage
            if coverage is not None:
                coverage.record_metanotion(item.sym.name)
            if not self._grammar.member(item.sym.name, (mark,)):
                return set()
            child = dict(bindings)
            child[item.sym.name] = (mark,)
            return self._sequence(items, index + 1, child, pos + 1)
        out: set[int] = set()
        for extended in _enumerate_unbound(
            self._grammar, item.hypernotion, bindings
        ):
            notion = self._grammar.instantiate(
                item.hypernotion, extended
            )
            for middle in self.parse(notion, pos):
                out |= self._sequence(items, index + 1, extended, middle)
        return out
