"""Plumbing shared by the smoke checks: arguments, a checked command
runner, a route server that cannot outlive its checker, and an HTTP
client that never goes through a proxy."""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request


def check(condition, message):
    """Fails the check with `message`; unlike assert, never compiled out."""
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def parse_args(description):
    """The command line every smoke check takes; works inside --out,
    which is emptied first."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--cli", required=True, help="built sunchase_cli")
    parser.add_argument("--loadgen", help="built loadgen")
    parser.add_argument("--data", required=True,
                        help="absolute path of the repository's data/")
    parser.add_argument("--out", required=True,
                        help="working directory under the build tree")
    args = parser.parse_args()
    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)
    os.chdir(args.out)
    # A terminated check still runs its cleanup (with-blocks, finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("FAIL: terminated"))
    return args


def run(*command, timeout=300):
    """Runs a command to completion and fails the check on a non-zero
    exit; its output goes to the test log."""
    command = [str(part) for part in command]
    print("$", " ".join(command), flush=True)
    rc = subprocess.run(command, timeout=timeout).returncode
    check(rc == 0, f"{os.path.basename(command[0])} exited {rc}")


_opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def http(url, body=None):
    """The body of a 200 answer to GET url, or to POST when body is given."""
    data = None if body is None else body.encode()
    try:
        with _opener.open(urllib.request.Request(url, data=data),
                          timeout=60) as response:
            status, text = response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        status, text = error.code, error.read().decode()
    check(status == 200, f"{url} answered {status}: {text[:300]}")
    return text


def http_json(url, body=None):
    return json.loads(http(url, body))


def _die_with_parent():
    # PR_SET_PDEATHSIG: the kernel kills the server when the checker
    # exits, even by SIGKILL (a ctest timeout).
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)


class Server:
    """`sunchase_cli serve` on an ephemeral port. Leaving the with-block
    kills the server unless stop() drained it first."""

    def __init__(self, cli, name, *options):
        self.name = name
        self.command = [cli, "serve", "--port", "0", "--port-file",
                        f"{name}.port", *options]

    def __enter__(self):
        self.log = open(f"{self.name}.out", "w")
        self.process = subprocess.Popen(
            self.command, stdout=self.log, stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent if sys.platform == "linux" else None)
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.__exit__()
            raise
        self.url = f"http://127.0.0.1:{self.port}"
        return self

    def __exit__(self, *exc):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.log.close()

    def _wait_for_port(self):
        deadline = time.monotonic() + 60
        while True:
            if os.path.exists(f"{self.name}.port"):
                with open(f"{self.name}.port") as port_file:
                    text = port_file.read()
                if text.endswith("\n"):
                    return int(text)
            check(self.process.poll() is None,
                  f"{self.name} exited {self.process.returncode} before "
                  "it listened")
            check(time.monotonic() < deadline,
                  f"{self.name} wrote no port file within 60 s")
            time.sleep(0.05)

    def stop(self):
        """SIGTERM drain: the server must exit 0. Returns its output."""
        self.process.send_signal(signal.SIGTERM)
        rc = self.process.wait(timeout=60)
        check(rc == 0, f"{self.name} exited {rc} after SIGTERM")
        with open(f"{self.name}.out") as output:
            return output.read()
