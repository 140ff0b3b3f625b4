"""The AppArmor-style LSM module.

Enforces the loaded profiles at the file-open, exec, and capability
hooks. Everything unprofiled passes through — matching AppArmor's
targeted-confinement posture on Ubuntu.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apparmor.profiles import AccessMode, Profile
from repro.kernel import modes
from repro.kernel.capabilities import Capability
from repro.kernel.inode import Inode
from repro.kernel.lsm import HookResult, SecurityModule
from repro.kernel.task import Task


class AppArmorLSM(SecurityModule):
    """Path-based mandatory access control, stacked under Protego."""

    name = "apparmor"

    def __init__(self, profiles: Optional[List[Profile]] = None):
        self._profiles: Dict[str, Profile] = {}
        for profile in profiles or []:
            self.load_profile(profile)
        self.denial_log: List[str] = []

    def load_profile(self, profile: Profile) -> None:
        """(Re)load a profile. The profile's automaton compiles lazily
        on its first query; replacing a binary's profile swaps in the
        new rule set atomically, and the decision-cache flush below
        guarantees no verdict computed under the old profile is ever
        served again."""
        self._profiles[profile.binary] = profile
        self.flush_decisions()

    def unload_profile(self, binary: str) -> None:
        self._profiles.pop(binary, None)
        self.flush_decisions()

    def profile_for(self, task: Task) -> Optional[Profile]:
        return self._profiles.get(task.exe_path)

    def render_policy_stats(self) -> str:
        """The profile-DFA block of /proc/protego/policy: one line per
        loaded profile (compiled or not), plus aggregate totals."""
        lines = []
        compiled_count = states = cells = queries = 0
        compile_us = 0.0
        for binary in sorted(self._profiles):
            profile = self._profiles[binary]
            automaton = profile.compiled
            if automaton is None:
                lines.append(f"profile {binary}: rules={len(profile.rules)} "
                             f"uncompiled")
                continue
            s = automaton.stats
            compiled_count += 1
            states += s.states
            cells += s.table_cells
            queries += automaton.queries
            compile_us += s.compile_us
            lines.append(
                f"profile {binary}: rules={s.rules} states={s.states} "
                f"classes={s.classes} cells={s.table_cells} "
                f"compile_us={s.compile_us} queries={automaton.queries} "
                f"generation={profile.generation}")
        header = (
            f"profiles={len(self._profiles)} compiled={compiled_count} "
            f"states={states} table_cells={cells} queries={queries} "
            f"compile_us={round(compile_us, 1)}")
        return "\n".join([header] + lines) + "\n"

    def decision_cacheable(self, hook: str, task: Task, *args) -> bool:
        """A complain-mode profile logs every would-be denial; a cache
        hit would swallow those log lines, so confine caching to
        unprofiled tasks and enforcing profiles."""
        profile = self.profile_for(task)
        return profile is None or profile.enforce

    def _deny(self, profile: Profile, message: str) -> HookResult:
        self.denial_log.append(message)
        if profile.enforce:
            return HookResult.DENY
        return HookResult.PASS  # complain mode

    # ------------------------------------------------------------------
    def file_open(self, task: Task, path: str, inode: Inode, flags: int) -> HookResult:
        profile = self.profile_for(task)
        if profile is None:
            return HookResult.PASS
        accmode = flags & modes.O_ACCMODE
        needed = AccessMode.NONE
        if accmode in (modes.O_RDONLY, modes.O_RDWR):
            needed |= AccessMode.READ
        if accmode in (modes.O_WRONLY, modes.O_RDWR):
            needed |= AccessMode.WRITE
        if profile.allows_path(path, needed):
            return HookResult.PASS
        return self._deny(profile, f"{task.exe_path}: open {path} denied")

    def bprm_check(self, task: Task, path: str, inode: Inode,
                   argv: List[str]) -> HookResult:
        profile = self.profile_for(task)
        if profile is None:
            return HookResult.PASS
        if profile.allows_path(path, AccessMode.EXEC):
            return HookResult.PASS
        return self._deny(profile, f"{task.exe_path}: exec {path} denied")

    def capable(self, task: Task, cap: Capability) -> HookResult:
        profile = self.profile_for(task)
        if profile is None:
            return HookResult.PASS
        if profile.allows_capability(cap):
            return HookResult.PASS
        return self._deny(profile, f"{task.exe_path}: capability {cap.name} denied")
