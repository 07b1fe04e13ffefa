"""Kernel image construction.

Puts the whole stack together for one :class:`KernelConfig`:

1. the user program (compiled **unprotected** — RegVault is a kernel
   mechanism; its instructions are not even executable in user mode),
2. the kernel IR module (all subsystems) compiled under the config's
   protection options,
3. the hand-written assembly (boot, trap entry/exit with or without
   CIP),
4. both assembled into loadable :class:`~repro.isa.assembler.Program`
   images.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.builder import IRBuilder
from repro.compiler.ir import Const, Function, GlobalVar, Module
from repro.compiler.layout import LayoutEngine
from repro.compiler.memops import build_typed_copy
from repro.compiler.pipeline import CompileOptions, CompiledModule, compile_module
from repro.compiler.types import FunctionType, I64
from repro.errors import KernelError
from repro.isa.assembler import Program, assemble
from repro.kernel import layout as kmap
from repro.kernel.boot import generate_boot
from repro.kernel.cip import build_cip_helpers
from repro.kernel.config import KernelConfig
from repro.kernel.accounting import build_accounting
from repro.kernel.cred import build_cred
from repro.kernel.entry import generate_trap_entry, generate_trap_exit
from repro.kernel.keyring import build_keyring
from repro.kernel.pagetable import build_pagetable
from repro.kernel.sched import build_sched
from repro.kernel.selinux import build_selinux
from repro.kernel.structs import ALL_STRUCTS, CRED, SYS_EXIT, THREAD_INFO
from repro.kernel.syscalls import build_syscalls
from repro.kernel.xtea import build_xtea

#: Offsets the trap-exit assembly needs, as .equ symbols.
_THREAD_OFFSET_SYMBOLS = {
    "THREAD_WRAPPED_RA_LO": "wrapped_ra_key_lo",
    "THREAD_WRAPPED_RA_HI": "wrapped_ra_key_hi",
    "THREAD_WRAPPED_INT_LO": "wrapped_int_key_lo",
    "THREAD_WRAPPED_INT_HI": "wrapped_int_key_hi",
}


@dataclass
class KernelImage:
    """Everything a session needs to boot and to reason about layout."""

    config: KernelConfig
    kernel_program: Program
    user_program: Program
    kernel_compiled: CompiledModule
    kernel_asm: str
    user_asm: str

    @property
    def layout(self) -> LayoutEngine:
        return self.kernel_compiled.layout

    def symbol(self, name: str) -> int:
        for program in (self.kernel_program, self.user_program):
            if name in program.symbols:
                return program.symbols[name]
        raise KernelError(f"unknown symbol {name!r}")

    def field_offset(self, struct, field_name: str) -> int:
        return self.layout.struct_layout(struct).slot(field_name).offset

    def global_field_addr(self, symbol: str, struct, field_name: str) -> int:
        return self.symbol(symbol) + self.field_offset(struct, field_name)

    def thread_base(self, tid: int) -> int:
        stride = self.layout.sizeof(THREAD_INFO)
        return self.symbol("threads") + tid * stride

    def thread_field_addr(self, tid: int, field_name: str) -> int:
        return self.thread_base(tid) + self.field_offset(
            THREAD_INFO, field_name
        )


def default_user_module() -> Module:
    """A trivial user program: exit(42) via the syscall ABI."""
    module = Module("user")
    main = Function("main", FunctionType(I64, ()))
    module.add_function(main)
    b = IRBuilder(main)
    b.block("entry")
    b.intrinsic("ecall", [Const(SYS_EXIT), Const(42)], returns=True)
    b.ret(Const(0))
    return module


def build_user_program(user_module: Module | None) -> tuple[Program, str]:
    """Compile and assemble the user program (always unprotected)."""
    module = user_module if user_module is not None else default_user_module()
    compiled = compile_module(module, CompileOptions.baseline())
    startup = (
        "_start:\n"
        "    call main\n"
        # If main returns, exit with its return value.
        "    mv a1, zero\n"
        "    li a7, %d\n"
        "    ecall\n"
        "user_hang:\n"
        "    j user_hang\n"
    ) % SYS_EXIT
    asm = startup + compiled.asm
    program = assemble(asm, bases=kmap.USER_BASES)
    return program, asm


def _build_attack_gadget(module: Module) -> None:
    """A never-legitimately-called function standing in for a ROP/JOP
    payload: hijacked control flow that reaches it halts the machine
    with the recognizable exit code 0xAA (the attacker "wins")."""
    func = Function("attack_gadget", FunctionType(I64, (I64, I64, I64)),
                    ["a0", "a1", "a2"])
    module.add_function(func)
    b = IRBuilder(func)
    b.block("entry")
    b.intrinsic("halt", [Const(0xAA)])
    b.ret(Const(0))


def build_kernel_module(config: KernelConfig, user_entry: int) -> Module:
    """Assemble the kernel's IR module from all subsystems."""
    module = Module("kernel")
    for struct in ALL_STRUCTS:
        module.add_struct(struct)
    module.add_global(GlobalVar("__user_entry", I64, init=user_entry))
    _build_attack_gadget(module)
    build_cip_helpers(module, cip=config.cip)
    build_accounting(module)
    build_xtea(module)
    build_cred(module)
    build_selinux(module)
    build_keyring(module, protect=config.noncontrol)
    build_pagetable(module)
    build_typed_copy(module, CRED)   # fork-path cred copy (§2.4.2)
    build_sched(module, config)
    build_syscalls(module, config)
    return module


#: Kernel-side build cache.  The kernel image depends only on the
#: configuration and the (fixed) user entry address, so sessions that
#: differ only in their user program share one compiled kernel.
#: Programs are never mutated after assembly, so sharing is safe.
_KERNEL_CACHE: dict[tuple[KernelConfig, int], tuple] = {}


def _build_kernel_side(config: KernelConfig, user_entry: int):
    key = (config, user_entry)
    cached = _KERNEL_CACHE.get(key)
    if cached is not None:
        return cached
    kernel_module = build_kernel_module(config, user_entry)
    compiled = compile_module(kernel_module, config.compile_options)

    offsets = [
        f".equ {symbol}, "
        f"{compiled.layout.struct_layout(THREAD_INFO).slot(field_name).offset}"
        for symbol, field_name in _THREAD_OFFSET_SYMBOLS.items()
    ]
    asm_lines = (
        offsets
        + [".text"]
        + generate_boot(generate_keys=config.any_protection)
        + generate_trap_entry(cip=config.cip)
        + generate_trap_exit(cip=config.cip, reload_keys=config.uses_keys)
        + ["", compiled.asm]
    )
    kernel_asm = "\n".join(asm_lines)
    kernel_program = assemble(kernel_asm)
    result = (kernel_program, compiled, kernel_asm)
    _KERNEL_CACHE[key] = result
    return result


def build_kernel(
    config: KernelConfig,
    user_module: Module | None = None,
    user_build: tuple[Program, str] | None = None,
) -> KernelImage:
    """Produce the full two-image (kernel + user) build.

    ``user_build`` is a ready :func:`build_user_program` result to link
    instead of building ``user_module``: user code does not depend on
    the config, so one build can serve every config.
    """
    if user_build is None:
        user_build = build_user_program(user_module)
    user_program, user_asm = user_build
    kernel_program, compiled, kernel_asm = _build_kernel_side(
        config, user_program.entry
    )
    return KernelImage(
        config=config,
        kernel_program=kernel_program,
        user_program=user_program,
        kernel_compiled=compiled,
        kernel_asm=kernel_asm,
        user_asm=user_asm,
    )
