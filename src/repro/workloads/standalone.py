"""The vSwarm standalone functions: Fibonacci, AES, Auth (Table 3.2).

Each comes in Go, Python and NodeJS flavours.  Handlers do the real work
(the AES ciphertext and HMAC digests in the responses are genuine); the
work models charge the compute the handler metered.  Crypto runs as
*native* code (Go compiled, Python's C crypto, Node's native addons), so
the interpreter-dispatch penalty applies to Fibonacci — pure
interpreted arithmetic — but not to AES/Auth, which is what lets the x86
warm instruction counts beat RISC-V on exactly the aes-go / auth-go /
auth-python trio the thesis observed (Fig 4.16).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.isa import ir
from repro.workloads import crypto
from repro.workloads.function import VSwarmFunction

#: Default request parameters (native magnitudes).
FIB_N = 10_000
AES_PLAINTEXT_BYTES = 1024
AUTH_TOKEN_BYTES = 96

#: Fibonacci results are reported modulo this (keeps the numbers small).
FIB_MODULUS = 10**18

_APP_LAYERS = {
    # (function, runtime) -> {arch: app layer MB}; calibrated to Table 4.4.
    ("fibonacci", "go"): {"x86": 1.09, "riscv": 0.86},
    ("fibonacci", "python"): {"x86": 3.20, "riscv": 3.22},
    ("fibonacci", "nodejs"): {"x86": 2.83, "riscv": 1.46},
    ("aes", "go"): {"x86": 1.37, "riscv": 1.14},
    ("aes", "python"): {"x86": 3.25, "riscv": 3.27},
    ("aes", "nodejs"): {"x86": 1.51, "riscv": 1.72},
    ("auth", "go"): {"x86": 1.37, "riscv": 1.14},
    ("auth", "python"): {"x86": 3.20, "riscv": 3.22},
    # auth-nodejs ships a much larger dependency tree.
    ("auth", "nodejs"): {"x86": 14.90, "riscv": 15.11},
}


def fib_mod(n: int) -> int:
    """``F(n) mod FIB_MODULUS`` by fast doubling, in O(log n) steps.

    ``F(2k) = F(k) * (2F(k+1) - F(k))`` and ``F(2k+1) = F(k)**2 +
    F(k+1)**2``, walking the bits of ``n`` from the top.
    """
    a, b = 0, 1  # F(k), F(k+1) for k = 0
    for bit in bin(n)[2:]:
        even = a * (2 * b - a) % FIB_MODULUS      # F(2k)
        odd = (a * a + b * b) % FIB_MODULUS       # F(2k+1)
        if bit == "1":
            a, b = odd, (even + odd) % FIB_MODULUS
        else:
            a, b = even, odd
    return a


class StandaloneFunction(VSwarmFunction):
    """Base for the nine standalone (Table 3.2) functions."""

    suite = "standalone"

    def __init__(self, base_name: str, runtime_name: str):
        super().__init__("%s-%s" % (base_name, runtime_name), runtime_name)
        self.base_name = base_name
        self.app_layer_mb = _APP_LAYERS[(base_name, runtime_name)]


class FibonacciFunction(StandaloneFunction):
    """Iterative Fibonacci — pure interpreted arithmetic.

    The simulated function runs the vSwarm loop: ``n`` modular additions,
    which is what :meth:`build_work` charges (from the ``iterations``
    meter).  The host computes the same answer by fast doubling
    (:func:`fib_mod`), so serving it costs O(log n) host time, not O(n).
    """

    def __init__(self, runtime_name: str):
        super().__init__("fibonacci", runtime_name)

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"n": FIB_N}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        n = int(payload.get("n", FIB_N))
        if n < 0:
            raise ValueError("fibonacci needs n >= 0")
        ctx.meter("iterations", n)
        return {"fib_mod": fib_mod(n), "n": n}

    def build_work(self, builder, record, services) -> None:
        iterations = record.metrics.get("iterations", FIB_N)
        builder.compute(ialu=2 * iterations, native=False, ilp=1)
        builder.branches(iterations, predictability=0.999)


class AesFunction(StandaloneFunction):
    """AES-128-ECB encryption of the request payload."""

    def __init__(self, runtime_name: str):
        super().__init__("aes", runtime_name)

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"plaintext": "serverless-" * (AES_PLAINTEXT_BYTES // 11)}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        plaintext = payload.get("plaintext", "").encode()
        key = payload.get("key", "0123456789abcdef").encode()[:16].ljust(16, b"0")
        ciphertext = crypto.aes128_encrypt(plaintext, key)
        blocks = crypto.aes_block_count(len(plaintext))
        ctx.meter("blocks", blocks)
        return {"ciphertext_prefix": ciphertext[:32].hex(), "blocks": blocks}

    def build_work(self, builder, record, services) -> None:
        blocks = int(record.metrics.get("blocks", 64))
        tables = builder.region("aes.tables", 4 * 1024)
        # Key schedule once, then 10 rounds/block of table lookups + xors.
        builder.compute(ialu=600, native=True)
        builder.touch(tables, loads=blocks * 160,
                      pattern=ir.RandomPattern(align=4), native=True)
        builder.compute(ialu=blocks * 420, native=True, ilp=4)


class AuthFunction(StandaloneFunction):
    """HMAC-SHA256 token verification."""

    def __init__(self, runtime_name: str):
        super().__init__("auth", runtime_name)

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"token": "tok-" + "a1b2" * (AUTH_TOKEN_BYTES // 4), "user": "alice"}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        token = payload.get("token", "").encode()
        user = payload.get("user", "anonymous").encode()
        secret = b"vswarm-auth-service-secret-key"
        digest = crypto.hmac_sha256(secret, user + b":" + token)
        chunks = crypto.sha256_chunk_count(len(user) + 1 + len(token) + 64)
        ctx.meter("sha_chunks", chunks * 3)  # inner + outer + key hash
        authorized = digest[0] % 2 == 0  # deterministic check for the demo
        return {"authorized": authorized, "digest_prefix": digest[:16].hex()}

    def build_work(self, builder, record, services) -> None:
        chunks = int(record.metrics.get("sha_chunks", 6))
        ktable = builder.region("sha.ktab", 1024)
        # 64 rounds of ~14 integer ops per 64-byte chunk.
        builder.touch(ktable, loads=chunks * 64, pattern=ir.StridePattern(stride=4),
                      native=True)
        builder.compute(ialu=chunks * 64 * 14, native=True, ilp=2)


def make_standalone(base_name: str, runtime_name: str) -> StandaloneFunction:
    """Factory for the nine standalone functions."""
    classes = {
        "fibonacci": FibonacciFunction,
        "aes": AesFunction,
        "auth": AuthFunction,
    }
    try:
        cls = classes[base_name]
    except KeyError:
        raise ValueError("unknown standalone function %r" % base_name)
    return cls(runtime_name)
