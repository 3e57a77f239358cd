"""Benchmark entry point.

    python3 perfbench/run.py --workload {tables,gluing,enumerate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Starts one fresh single-threaded Python
process (worker.py) with PYTHONHASHSEED=0 and the checkout's src/ on
PYTHONPATH, waits for it, and passes its output and exit status on. When
it reports setup_s, SETUP_PROBES more fresh processes then only set up, and
setup_s becomes the median over all of them. The last line of standard
output is the result object. A traced run also writes its spans under
perfbench/out/.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170
SETUP_PROBES = 6


def launch(argv, env, deadline):
    """Run worker.py to its end; returns (exit status, standard output)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    proc = subprocess.Popen(cmd + ["--launched", repr(time.monotonic())],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def main(argv):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "enrlat", "__init__.py")):
        print("run.py: no src/enrlat in %s; run from an enrlat checkout" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = src
    deadline = time.monotonic() + TIMEOUT_S
    try:
        code, out = launch(list(argv), env, deadline)
        lines = out.splitlines()
        if code != 0 or len(lines) < 2:
            sys.stdout.write(out)
            return code or 4
        result = json.loads(lines[-1])
        if "setup_s" in result["metrics"]:
            info = json.loads(lines[-2][len("info "):])
            raw, norm = [info["raw"]["setup_s"]], [info["normalised"]["setup_s"]]
            for _ in range(SETUP_PROBES):
                code, probe = launch(list(argv) + ["--setup-only"], env, deadline)
                if code != 0:
                    sys.stdout.write(probe)
                    return code
                probe = json.loads(probe.splitlines()[-1])
                raw.append(probe["raw"])
                norm.append(probe["normalised"])
            info["setup_samples"] = {"raw": raw, "normalised": norm}
            info["raw"]["setup_s"] = statistics.median(raw)
            info["normalised"]["setup_s"] = statistics.median(norm)
            result["metrics"]["setup_s"]["value"] = info["normalised"]["setup_s"]
            lines[-2:] = ["info " + json.dumps(info, sort_keys=True), json.dumps(result)]
    except subprocess.TimeoutExpired:
        print("run.py: worker exceeded %d s and was stopped" % TIMEOUT_S, file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
