"""Independent big-integer oracles shared by the interpreter and acceptance
tests.  These compute expected values from first principles (unbounded
integers, explicit truncation), not through the code under test."""

from beepl.core import BopKind


def wrap_oracle(v: int, bits: int) -> int:
    v %= 1 << bits
    return v - (1 << bits) if v >= (1 << (bits - 1)) else v


def trunc_div_oracle(a: int, b: int) -> int:
    q = a // b
    if (a % b != 0) and ((a < 0) != (b < 0)):
        q += 1
    return q


def bop_oracle(op: BopKind, a: int, b: int, bits: int) -> int:
    if op is BopKind.ADD:
        v = a + b
    elif op is BopKind.SUB:
        v = a - b
    elif op is BopKind.MUL:
        v = a * b
    elif op is BopKind.DIV:
        v = trunc_div_oracle(a, b)
    elif op is BopKind.MOD:
        v = a - trunc_div_oracle(a, b) * b
    elif op is BopKind.AND:
        v = a & b
    elif op is BopKind.OR:
        v = a | b
    elif op is BopKind.XOR:
        v = a ^ b
    elif op is BopKind.SHL:
        v = a << b
    elif op is BopKind.SHR:
        v = a >> b
    else:
        raise AssertionError(op)
    return wrap_oracle(v, bits)


def unsafe_oracle(op: BopKind, a: int, b: int, bits: int) -> bool:
    """The operand pairs whose C meaning is undefined: a zero divisor, the
    lane's minimum over -1, and a shift count outside [0, bits)."""
    if op in (BopKind.DIV, BopKind.MOD):
        return b == 0 or (a == -(1 << (bits - 1)) and b == -1)
    if op in (BopKind.SHL, BopKind.SHR):
        return not 0 <= b < bits
    return False
