"""``python3 -m benchmarks.e2e``: hermetic bootstrap, then run or compare.

The process re-executes itself once with every ``PERFSIGHT_*`` variable
removed (a dozen are read across ``src/`` and the legacy benchmarks) and
``PYTHONHASHSEED`` pinned, so a run depends on its arguments alone.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_HASH_SEED = "0"


def _hermetic_env() -> None:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFSIGHT_")}
    if len(env) == len(os.environ) and env.get("PYTHONHASHSEED") == _HASH_SEED:
        return
    env["PYTHONHASHSEED"] = _HASH_SEED
    sys.stdout.flush()
    os.execve(
        sys.executable,
        [sys.executable, os.path.join(_HERE, "__main__.py"), *sys.argv[1:]],
        env,
    )


def main() -> int:
    _hermetic_env()
    src = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"benchmarks.e2e: no program to measure at {src}/repro", file=sys.stderr)
        return 2
    for path in (src, _ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        from benchmarks.e2e import compare

        return compare.compare(argv[1:])
    if argv[:1] == ["runs"]:
        from benchmarks.e2e import compare

        return compare.make_runs(argv[1:])
    if argv[:1] == ["manifest"]:
        import json

        from benchmarks.e2e.metrics import manifest

        print(json.dumps(manifest(), indent=2))
        return 0
    from benchmarks.e2e import runner

    return runner.main(argv)


if __name__ == "__main__":
    sys.exit(main())
