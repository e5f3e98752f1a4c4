"""A crash-point shim: count durable-write calls under one directory and
crash at the k-th.

The counted calls are ``write`` on files opened for writing,
``os.fsync``, ``os.replace`` and ``os.remove``/``os.unlink``, each only
when it touches a path under the shim's root.  At the ``crash_at``-th
counted call the shim raises :class:`InjectedCrash` *instead of* doing
it.  ``InjectedCrash`` is a ``BaseException``, so no ``except
Exception`` handler on the way (observer isolation, best-effort
telemetry, pruning) swallows it: the call stack unwinds as if the
process had died there, and whatever reached the files before it is
what a reopen finds.
"""

import builtins
import os


class InjectedCrash(BaseException):
    """The simulated process death at one durable write."""


class _Writer:
    """A file object whose ``write`` calls the shim first."""

    def __init__(self, shim, fh):
        self._shim = shim
        self._fh = fh

    def write(self, data):
        self._shim.tick("write")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __iter__(self):
        return iter(self._fh)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


class CrashShim:
    """Install with ``with CrashShim(root, crash_at=k) as shim:``;
    ``shim.calls`` counts the calls seen, ``shim.fired`` whether it
    crashed."""

    def __init__(self, root, crash_at=None):
        self.root = os.path.abspath(root)
        self.crash_at = crash_at
        self.calls = 0
        self.fired = False
        self._fds = set()
        self._saved = {}

    def tick(self, kind):
        self.calls += 1
        if self.calls == self.crash_at:
            self.fired = True
            raise InjectedCrash(f"crash at call {self.calls} ({kind})")

    def _under(self, path):
        if isinstance(path, int):
            return path in self._fds
        return os.path.abspath(path).startswith(self.root + os.sep)

    def __enter__(self):
        real_open, real_os_open = builtins.open, os.open
        real = {name: getattr(os, name)
                for name in ("fsync", "replace", "remove", "unlink")}
        self._saved = dict(real, open=real_open, os_open=real_os_open)

        def shim_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if any(c in mode for c in "wax+") and self._under(file):
                self._fds.add(fh.fileno())
                return _Writer(self, fh)
            return fh

        def shim_os_open(path, flags, *args, **kwargs):
            fd = real_os_open(path, flags, *args, **kwargs)
            if self._under(path):
                self._fds.add(fd)
            return fd

        def counted(name):
            def call(path, *args, **kwargs):
                target = args[0] if name == "replace" else path
                if self._under(target):
                    self.tick(name)
                return real[name](path, *args, **kwargs)
            return call

        builtins.open = shim_open
        os.open = shim_os_open
        for name in real:
            setattr(os, name, counted(name))
        return self

    def __exit__(self, *exc):
        builtins.open = self._saved["open"]
        os.open = self._saved["os_open"]
        for name in ("fsync", "replace", "remove", "unlink"):
            setattr(os, name, self._saved[name])
        return False
