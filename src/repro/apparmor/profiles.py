"""AppArmor-style profiles: per-binary path and capability rules.

A profile confines one executable (matched by its path): which file
paths it may read/write/execute, and which capabilities it may use.
Unprofiled binaries are unconfined, as on stock Ubuntu.

This is deliberately the *administrator-perspective* confinement the
paper contrasts with Protego: a confined mount may still mount
anything mount(2) lets it mount — the profile only limits collateral
damage (section 1's AppArmor discussion).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import re
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.kernel.capabilities import Capability

#: Module-wide profile-generation allocator: every (re)compile of any
#: profile's automaton draws the next value, so a profile's
#: ``generation`` names exactly one compiled ruleset (rendered in
#: /proc/protego/policy).
_profile_generations = iter(range(1, 1 << 62)).__next__


class AccessMode(enum.Flag):
    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()

    @classmethod
    def parse(cls, text: str) -> "AccessMode":
        mode = cls.NONE
        for char in text:
            mode |= {"r": cls.READ, "w": cls.WRITE, "x": cls.EXEC}[char]
        return mode


@dataclasses.dataclass(frozen=True)
class ProfileRule:
    """One path rule, e.g. ``/etc/fstab r`` or ``/media/** rw``."""

    pattern: str
    mode: AccessMode

    def matches(self, path: str) -> bool:
        """The regex oracle for one pattern.

        AppArmor semantics throughout: ``/media/**`` matches anything
        *under* ``/media`` but not ``/media`` itself (the literal
        ``/`` before ``**`` must be present in the path). The compiled
        DFA, this oracle, and the old special-cased prefix matcher
        used to disagree on exactly that; the translation below is now
        the single definition.
        """
        return _glob_to_regex(self.pattern).match(path) is not None


@functools.lru_cache(maxsize=4096)
def _glob_to_regex(pattern: str) -> "re.Pattern":
    """AppArmor-style glob: ``*`` stays within one path segment,
    ``**`` crosses segments, ``?`` matches one non-slash character.

    Memoized: this used to recompile on every ``matches()`` call,
    which made the per-rule scan quadratically silly and the regex
    oracle an unfair baseline for the compiled automaton."""
    out = []
    i = 0
    while i < len(pattern):
        char = pattern[i]
        if char == "*":
            if pattern[i:i + 2] == "**":
                out.append(".*")
                i += 2
                continue
            out.append("[^/]*")
        elif char == "?":
            out.append("[^/]")
        else:
            out.append(re.escape(char))
        i += 1
    return re.compile("".join(out) + r"\Z")


@dataclasses.dataclass
class Profile:
    """Confinement for one binary."""

    binary: str
    rules: Tuple[ProfileRule, ...] = ()
    capabilities: FrozenSet[Capability] = frozenset()
    #: complain mode logs would-be denials without enforcing them.
    enforce: bool = True
    #: The compiled path automaton, built lazily on the first query
    #: and rebuilt if ``rules`` is ever swapped for a new tuple.
    _compiled: Optional[object] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)
    #: Which compiled ruleset answered the last query: 0 until first
    #: compile, then a module-unique value per (re)compile.
    generation: int = dataclasses.field(
        default=0, init=False, repr=False, compare=False)

    @property
    def compiled(self):
        """The automaton if this profile has compiled yet, else None
        (introspection for /proc/protego/policy — never forces a
        compile)."""
        return self._compiled

    @property
    def automaton(self):
        compiled = self._compiled
        if compiled is None or compiled.rules_key is not self.rules:
            from repro.apparmor.compiler import compile_rules
            compiled = compile_rules(self.rules)
            self._compiled = compiled
            self.generation = _profile_generations()
        return compiled

    def allows_path(self, path: str, mode: AccessMode) -> bool:
        """One O(len(path)) walk over the combined automaton; the
        accepting state already carries the union of every matching
        rule's mode bits."""
        return (self.automaton.match_mask(path) & mode.value) == mode.value

    def allows_path_linear(self, path: str, mode: AccessMode) -> bool:
        """The pre-compilation O(rules x len(path)) scan, kept as the
        differential-testing oracle and benchmark baseline."""
        granted = AccessMode.NONE
        for rule in self.rules:
            if rule.matches(path):
                granted |= rule.mode
        return (granted & mode) == mode

    def allows_capability(self, cap: Capability) -> bool:
        return cap in self.capabilities


def make_profile(binary: str, path_rules: Iterable[Tuple[str, str]] = (),
                 capabilities: Iterable[Capability] = (),
                 enforce: bool = True) -> Profile:
    """Convenience constructor:
    ``make_profile("/bin/ping", [("/etc/hosts", "r")], [CAP_NET_RAW])``.
    """
    rules = tuple(ProfileRule(pattern, AccessMode.parse(mode))
                  for pattern, mode in path_rules)
    return Profile(binary, rules, frozenset(capabilities), enforce)
