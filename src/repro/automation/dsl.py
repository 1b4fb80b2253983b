"""A small textual rule language.

The paper collects its PoC automation rules from user forums where they are
written in prose; the examples directory uses this DSL to keep scenario
scripts readable::

    WHEN c2 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock
    WHEN sm1 smoke.detected THEN NOTIFY push "Smoke detected in the kitchen"

Grammar (one rule per line, ``#`` comments allowed)::

    rule      := "WHEN" device event [ "IF" device "." attr "==" value ] "THEN" action
    action    := "COMMAND" device command | "NOTIFY" channel quoted-text

Lines are tokenised as ``shlex.split(line, comments=True)`` would.  Rule
text is almost always bare words plus double-quoted text, which one
compiled regex splits; only a line holding shlex's other quoting, escape
or comment characters (``'``, ``\\``, ``#``) or an unpaired ``"`` goes
through shlex itself.
"""

from __future__ import annotations

import re
import shlex

from .rules import CommandAction, Condition, EventPattern, NotifyAction, Rule

_CONDITION_RE = re.compile(r"^(?P<dev>[\w-]+)\.(?P<attr>[\w-]+)$")

#: One token of a line with no ``'``, ``\`` or ``#`` and paired ``"``:
#: runs of non-blanks and of double-quoted text, blanks being shlex's
#: whitespace (``str.split`` would also split at ``\v``, ``\f`` and more).
_TOKEN_RE = re.compile(r'(?:[^ \t\r\n"]+|"[^"]*")+')


class RuleSyntaxError(ValueError):
    """Raised when a DSL line cannot be parsed."""


def tokenise(line: str) -> list[str]:
    """Split ``line`` into tokens exactly as ``shlex.split(line, comments=True)``.

    Raises :class:`RuleSyntaxError` naming the line where shlex would
    raise (an unterminated quote, or a trailing escape).
    """
    if "'" in line or "\\" in line or "#" in line or line.count('"') % 2:
        try:
            return shlex.split(line, comments=True)
        except ValueError as exc:
            raise RuleSyntaxError(f"{str(exc).lower()}: {line!r}") from exc
    return [token.replace('"', "") for token in _TOKEN_RE.findall(line)]


def parse_rule(line: str, rule_id: str | None = None) -> Rule:
    """Parse one DSL line into a :class:`Rule`.

    Raises :class:`RuleSyntaxError` naming the line when it does not
    follow the grammar, including when tokens follow the action.  Without
    ``rule_id`` the rule's id stays empty, and the engine that installs it
    names it ``rule-<n>``.
    """
    tokens = tokenise(line)
    if not tokens:
        raise RuleSyntaxError("empty rule")
    try:
        return _parse_tokens(tokens, rule_id or "", line)
    except (IndexError, StopIteration) as exc:
        raise RuleSyntaxError(f"truncated rule: {line!r}") from exc


def _parse_tokens(tokens: list[str], rule_id: str, line: str) -> Rule:
    it = iter(tokens)
    if next(it).upper() != "WHEN":
        raise RuleSyntaxError(f"rule must start with WHEN: {line!r}")
    trigger = EventPattern(device_id=next(it), event_name=next(it))
    condition = None
    word = next(it).upper()
    if word == "IF":
        target = next(it)
        match = _CONDITION_RE.match(target)
        if match is None:
            raise RuleSyntaxError(f"bad condition target {target!r}")
        op = next(it)
        if op != "==":
            raise RuleSyntaxError(f"only '==' conditions supported, got {op!r}")
        condition = Condition(
            device_id=match.group("dev"),
            attribute=match.group("attr"),
            equals=next(it),
        )
        word = next(it).upper()
    if word != "THEN":
        raise RuleSyntaxError(f"expected THEN, got {word!r}")
    kind = next(it).upper()
    if kind == "COMMAND":
        action = CommandAction(device_id=next(it), command=next(it))
    elif kind == "NOTIFY":
        action = NotifyAction(channel=next(it), message=next(it))
    else:
        raise RuleSyntaxError(f"unknown action kind {kind!r}")
    extra = list(it)
    if extra:
        raise RuleSyntaxError(f"unexpected tokens {extra} after the action: {line!r}")
    return Rule(
        rule_id=rule_id,
        trigger=trigger,
        condition=condition,
        action=action,
        description=line.strip(),
    )
