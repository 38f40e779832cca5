"""Child processes whose peak-RSS rusage is their own.

On Linux a process's peak RSS (ru_maxrss) starts, at exec, from the peak of
the memory image it replaces, which a forked child copies from its parent.
A command spawned straight from a benchmark process that has imported
numpy and scipy, or run a level-5 solve, would therefore report at least
that process's size.  A Spawner forks a helper while the benchmark process
is still small, and the helper starts every child.
"""

from __future__ import annotations

import base64
import json
import os
import selectors
import subprocess


def run_child(argv, env=None, cwd=None):
    """Run argv to completion: (exit code, stdout, stderr, peak RSS in MB).

    The child is reaped with wait4 so its own rusage gives its peak RSS.
    """
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]).decode(errors="replace"),
        usage.ru_maxrss / 1024.0,
    )


class Spawner:
    """A forked helper that runs one child at a time on request.

    Create it before importing anything large; close it to stop the helper.
    """

    def __init__(self):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(request_w)
            os.close(reply_r)
            code = 1
            try:
                _serve(request_r, reply_w)
                code = 0
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self.pid = pid
        self._requests = os.fdopen(request_w, "w")
        self._replies = os.fdopen(reply_r, "r")

    def run(self, argv, env=None, cwd=None):
        """run_child(argv, env, cwd), executed by the helper."""
        self._requests.write(json.dumps({"argv": argv, "env": env, "cwd": cwd}) + "\n")
        self._requests.flush()
        line = self._replies.readline()
        if not line:
            raise RuntimeError("the spawner helper exited")
        reply = json.loads(line)
        return reply["code"], base64.b64decode(reply["stdout"]), reply["stderr"], reply["rss_mb"]

    def close(self):
        self._requests.close()
        os.waitpid(self.pid, 0)
        self._replies.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve(request_fd, reply_fd):
    with os.fdopen(request_fd) as requests, os.fdopen(reply_fd, "w") as replies:
        for line in requests:
            request = json.loads(line)
            code, stdout, stderr, rss_mb = run_child(request["argv"], request["env"], request["cwd"])
            replies.write(json.dumps({
                "code": code,
                "stdout": base64.b64encode(stdout).decode(),
                "stderr": stderr,
                "rss_mb": rss_mb,
            }) + "\n")
            replies.flush()
