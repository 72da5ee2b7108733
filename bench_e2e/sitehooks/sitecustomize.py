"""Loads the benchmark's hooks into site-server processes of a traced run.

The traced run prepends this directory to ``PYTHONPATH`` and sets
``BENCH_E2E_TRACE_DIR`` for the site servers it deploys, so the
interpreter imports this module at start-up. End-to-end runs never set
either, and their site servers never import anything of ``bench_e2e``.

Hooks go in right after ``repro.distributed.siteserver`` has been
imported (every layer a site runs is loaded by then); spans are written
to ``<dir>/spans-site-<pid>.jsonl`` when the process ends.
"""

import os
import sys

TRACE_DIR_ENV = "BENCH_E2E_TRACE_DIR"
TRIGGER = "repro.distributed.siteserver"


def _install(trace_dir):
    import atexit
    import signal

    from bench_e2e import hooks

    recorder = hooks.Recorder()
    hooks.Installation(recorder)
    recorder.active = True

    def dump():
        # The deployment sends SIGTERM right after the graceful shutdown;
        # do not let it cut the dump short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        site_id = "?"
        if "--site" in sys.argv:
            site_id = sys.argv[sys.argv.index("--site") + 1]
        recorder.dump(
            os.path.join(trace_dir, f"spans-site-{os.getpid()}.jsonl"), f"site:{site_id}"
        )

    atexit.register(dump)


class _AfterImport:
    """Meta-path finder that runs ``_install`` once ``TRIGGER`` has loaded."""

    def __init__(self, trace_dir):
        self.trace_dir = trace_dir

    def find_spec(self, name, path=None, target=None):
        if name != TRIGGER:
            return None
        import importlib.util

        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        if spec is None or spec.loader is None:
            return spec
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            _install(self.trace_dir)

        spec.loader.exec_module = exec_module
        return spec


if os.environ.get(TRACE_DIR_ENV):
    sys.meta_path.insert(0, _AfterImport(os.environ[TRACE_DIR_ENV]))
