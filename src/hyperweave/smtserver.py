"""A minimal QF_LIA solver behind the SMT-LIB v2 stdio protocol.

Run as ``python -m hyperweave.smtserver``.  The verifier solves in-process
with ``lia`` by default and starts a solver child only when given
--solver / HYPERWEAVE_SOLVER; this server is the bundled choice for that
(``--solver 'python -m hyperweave.smtserver'``), and any other SMT-LIB v2
solver (z3 -in, cvc5 --incremental, ...) works the same way.

Supported commands: set-logic, set-option, set-info, declare-const,
declare-fun (0-ary Int), assert, push, pop, check-sat, get-model, echo,
reset, exit.
"""

from __future__ import annotations

import sys

from . import exprs, lia


class ProtocolError(Exception):
    pass


def tokenize(text: str):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            yield c
            i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            yield text[i : j + 1]
            i = j + 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            yield text[i:j]
            i = j


def parse_sexprs(text: str):
    stack: list = []
    out: list = []
    for tok in tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise ProtocolError("unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                out.append(done)
        else:
            if stack:
                stack[-1].append(tok)
            else:
                out.append(tok)
    if stack:
        raise ProtocolError("unbalanced '('")
    return out


class Session:
    def __init__(self, out):
        self.out = out
        self.reset()

    def reset(self):
        self.declared: list[str] = []
        self.frames: list[list] = [[]]
        self.last_model: dict | None = None

    def reply(self, text: str):
        self.out.write(text + "\n")
        self.out.flush()

    # ---- term translation

    def to_int(self, t):
        if isinstance(t, str):
            if t.lstrip("-").isdigit():
                return ("num", int(t))
            return ("var", t)
        head = t[0]
        args = t[1:]
        if head == "+":
            e = self.to_int(args[0])
            for a in args[1:]:
                e = ("add", e, self.to_int(a))
            return e
        if head == "-":
            if len(args) == 1:
                return ("neg", self.to_int(args[0]))
            e = self.to_int(args[0])
            for a in args[1:]:
                e = ("sub", e, self.to_int(a))
            return e
        if head == "*":
            e = self.to_int(args[0])
            for a in args[1:]:
                e = ("mul", e, self.to_int(a))
            return e
        raise ProtocolError(f"bad int term {t!r}")

    def to_bool(self, t):
        if isinstance(t, str):
            if t == "true":
                return ("true",)
            if t == "false":
                return ("false",)
            raise ProtocolError(f"bad bool term {t!r}")
        head = t[0]
        args = t[1:]
        if head == "not":
            return ("not", self.to_bool(args[0]))
        if head in ("and", "or"):
            return (head, tuple(self.to_bool(a) for a in args))
        if head == "=>":
            parts = [("not", self.to_bool(a)) for a in args[:-1]]
            parts.append(self.to_bool(args[-1]))
            return ("or", tuple(parts))
        if head in ("=", "<", "<=", ">", ">="):
            conj = []
            for l, r in zip(args, args[1:]):
                conj.append(("cmp", head, self.to_int(l), self.to_int(r)))
            return conj[0] if len(conj) == 1 else ("and", tuple(conj))
        if head == "distinct":
            conj = []
            for i in range(len(args)):
                for j in range(i + 1, len(args)):
                    conj.append(("cmp", "!=", self.to_int(args[i]), self.to_int(args[j])))
            return conj[0] if len(conj) == 1 else ("and", tuple(conj))
        raise ProtocolError(f"bad bool term {t!r}")

    # ---- commands

    def run(self, cmd) -> bool:
        """Execute one command; returns False to stop the session."""
        if not isinstance(cmd, list) or not cmd:
            raise ProtocolError(f"bad command {cmd!r}")
        head = cmd[0]
        if head in ("set-logic", "set-option", "set-info"):
            return True
        if head == "declare-const":
            self.declared.append(cmd[1])
            return True
        if head == "declare-fun":
            if cmd[2] != []:
                raise ProtocolError("only 0-ary functions supported")
            self.declared.append(cmd[1])
            return True
        if head == "assert":
            self.frames[-1].append(exprs.canon_raw(self.to_bool(cmd[1])))
            return True
        if head == "push":
            n = int(cmd[1]) if len(cmd) > 1 else 1
            for _ in range(n):
                self.frames.append([])
            return True
        if head == "pop":
            n = int(cmd[1]) if len(cmd) > 1 else 1
            for _ in range(n):
                if len(self.frames) == 1:
                    raise ProtocolError("pop on empty stack")
                self.frames.pop()
            return True
        if head == "check-sat":
            f = exprs.c_and([g for frame in self.frames for g in frame])
            res, model = lia.solve_formula(f)
            self.last_model = model if res == "sat" else None
            self.reply(res)
            return True
        if head == "get-model":
            if self.last_model is None:
                self.reply('(error "model is not available")')
                return True
            lines = ["("]
            for v in self.declared:
                val = self.last_model.get(v, 0)
                sval = str(val) if val >= 0 else f"(- {abs(val)})"
                lines.append(f"  (define-fun {v} () Int {sval})")
            lines.append(")")
            self.reply("\n".join(lines))
            return True
        if head == "echo":
            self.reply(cmd[1].strip('"'))
            return True
        if head == "reset":
            self.reset()
            return True
        if head == "exit":
            return False
        raise ProtocolError(f"unsupported command {head!r}")


def main(argv=None) -> int:
    session = Session(sys.stdout)
    buf = ""
    depth = 0
    for line in sys.stdin:
        buf += line
        depth += line.count("(") - line.count(")")
        if depth > 0:
            continue
        try:
            cmds = parse_sexprs(buf)
        except ProtocolError as e:
            session.reply(f'(error "{e}")')
            buf = ""
            depth = 0
            continue
        buf = ""
        depth = 0
        for cmd in cmds:
            try:
                if not session.run(cmd):
                    return 0
            except ProtocolError as e:
                session.reply(f'(error "{e}")')
            except exprs.NonlinearError as e:
                session.reply(f'(error "nonlinear: {e}")')
    return 0


if __name__ == "__main__":
    sys.exit(main())
