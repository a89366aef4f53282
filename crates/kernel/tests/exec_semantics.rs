//! Exhaustive condition-code semantics for the interpreter: every Jcc
//! against computed flags, signed and unsigned comparisons. Then the
//! predecoded-instruction cache: it must never run bytes a frame no
//! longer holds, nor skip a fetch's permission check.

use adelie_isa::{AluOp, Asm, Cond, Insn, Reg};
use adelie_kernel::{Kernel, KernelConfig, VmError};
use adelie_vmem::{Fault, PteFlags, PAGE_SIZE};
use std::sync::Arc;

fn run(kernel: &Arc<Kernel>, asm: &Asm, args: &[u64]) -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x100_0000_0000);
    let va = NEXT.fetch_add(0x10_0000, std::sync::atomic::Ordering::Relaxed);
    let bytes = asm.assemble().unwrap().bytes;
    let pages = bytes.len().div_ceil(PAGE_SIZE);
    kernel
        .space
        .map_range(va, &kernel.phys.alloc_n(pages), PteFlags::DATA)
        .unwrap();
    kernel.space.write_bytes(&kernel.phys, va, &bytes).unwrap();
    kernel
        .space
        .protect_range(va, pages, PteFlags::TEXT)
        .unwrap();
    let mut vm = kernel.vm();
    vm.call(va, args).unwrap()
}

/// rax = 1 if `jcc` taken after `cmp rdi, rsi`, else 0.
fn cmp_taken(kernel: &Arc<Kernel>, c: Cond, a: u64, b: u64) -> bool {
    let mut asm = Asm::new();
    asm.alu(AluOp::Cmp, Reg::Rdi, Reg::Rsi);
    asm.jcc_label(c, "yes");
    asm.mov_imm32(Reg::Rax, 0);
    asm.ret();
    asm.label("yes");
    asm.mov_imm32(Reg::Rax, 1);
    asm.ret();
    run(kernel, &asm, &[a, b]) == 1
}

#[test]
fn condition_codes_match_reference_semantics() {
    let kernel = Kernel::new(KernelConfig::default());
    let cases: [(u64, u64); 8] = [
        (0, 0),
        (1, 2),
        (2, 1),
        (u64::MAX, 0),
        (0, u64::MAX),
        (u64::MAX, u64::MAX),
        (1 << 63, 1),
        (1, 1 << 63),
    ];
    for (a, b) in cases {
        let (sa, sb) = (a as i64, b as i64);
        assert_eq!(cmp_taken(&kernel, Cond::E, a, b), a == b, "je {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Ne, a, b), a != b, "jne {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::B, a, b), a < b, "jb {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Ae, a, b), a >= b, "jae {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Be, a, b), a <= b, "jbe {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::A, a, b), a > b, "ja {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::L, a, b), sa < sb, "jl {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Ge, a, b), sa >= sb, "jge {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Le, a, b), sa <= sb, "jle {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::G, a, b), sa > sb, "jg {a} {b}");
        // Sign flag after cmp = sign of the wrapped difference.
        assert_eq!(
            cmp_taken(&kernel, Cond::S, a, b),
            (a.wrapping_sub(b) as i64) < 0,
            "js {a} {b}"
        );
        assert_eq!(
            cmp_taken(&kernel, Cond::Ns, a, b),
            (a.wrapping_sub(b) as i64) >= 0,
            "jns {a} {b}"
        );
    }
}

#[test]
fn stack_discipline_and_callee_balance() {
    // push/pop pairs and nested calls leave rsp balanced (verified by
    // reading arguments through the stack).
    let kernel = Kernel::new(KernelConfig::default());
    let mut asm = Asm::new();
    asm.push(Reg::Rdi);
    asm.push(Reg::Rsi);
    asm.call_label("sum_top_two");
    asm.pop(Reg::Rcx); // discard
    asm.pop(Reg::Rcx);
    asm.ret();
    asm.label("sum_top_two");
    // [rsp] = return addr, [rsp+8] = rsi, [rsp+16] = rdi
    asm.mov_load(Reg::Rax, adelie_isa::Mem::base_disp(Reg::Rsp, 8));
    asm.alu_load(
        AluOp::Add,
        Reg::Rax,
        adelie_isa::Mem::base_disp(Reg::Rsp, 16),
    );
    asm.ret();
    assert_eq!(run(&kernel, &asm, &[30, 12]), 42);
}

#[test]
fn shifts_and_multiply() {
    let kernel = Kernel::new(KernelConfig::default());
    let mut asm = Asm::new();
    asm.mov_rr(Reg::Rax, Reg::Rdi);
    asm.insn(adelie_isa::Insn::ShlImm(Reg::Rax, 4));
    asm.insn(adelie_isa::Insn::ShrImm(Reg::Rax, 1));
    asm.insn(adelie_isa::Insn::Imul {
        dst: Reg::Rax,
        src: Reg::Rsi,
    });
    asm.ret();
    assert_eq!(run(&kernel, &asm, &[5, 3]), 5 * 8 * 3);
}

#[test]
fn mmio_roundtrip_through_interpreter() {
    use adelie_kernel::MmioDevice;
    struct Scratch(std::sync::atomic::AtomicU64);
    impl MmioDevice for Scratch {
        fn mmio_read(&self, _o: u64, _s: usize) -> u64 {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
        fn mmio_write(&self, _o: u64, v: u64, _s: usize) {
            self.0
                .store(v.wrapping_mul(3), std::sync::atomic::Ordering::SeqCst);
        }
        fn name(&self) -> &str {
            "scratch"
        }
    }
    let kernel = Kernel::new(KernelConfig::default());
    let (_, bar) = kernel.map_device(Arc::new(Scratch(Default::default())), 1);
    let mut asm = Asm::new();
    asm.mov_imm64(Reg::Rcx, bar);
    asm.mov_store(adelie_isa::Mem::base(Reg::Rcx), Reg::Rdi);
    asm.mov_load(Reg::Rax, adelie_isa::Mem::base(Reg::Rcx));
    asm.ret();
    assert_eq!(run(&kernel, &asm, &[14]), 42);
}

#[test]
fn retpoline_thunk_executes_architecturally() {
    // The retpoline sequence (call; trap-loop; mov [rsp],rax; ret) must
    // deliver control to rax without ever running the speculation trap.
    let kernel = Kernel::new(KernelConfig::default());
    let mut asm = Asm::new();
    asm.mov_imm64(Reg::Rax, 0); // filled below: target = "landing"
                                // We can't compute the landing address before assembly, so instead
                                // load it pc-relatively.
    let mut asm = Asm::new();
    asm.lea_sym(Reg::Rax, "landing"); // PC32 — resolved at link… not here.
    let _ = asm;
    // Simpler: thunk jump-to-rax where rax = rdi (passed in).
    let mut asm = Asm::new();
    asm.mov_rr(Reg::Rax, Reg::Rdi);
    asm.call_label("thunk");
    asm.ret();
    asm.label("thunk");
    asm.call_label("do");
    asm.label("trap");
    asm.insn(adelie_isa::Insn::Pause);
    asm.insn(adelie_isa::Insn::Lfence);
    asm.jmp_label("trap");
    asm.label("do");
    asm.mov_store(adelie_isa::Mem::base(Reg::Rsp), Reg::Rax);
    asm.ret();
    // Target: a second blob returning 99.
    let mut target = Asm::new();
    target.mov_imm32(Reg::Rax, 99);
    target.ret();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x200_0000_0000);
    let tva = NEXT.fetch_add(0x10_0000, std::sync::atomic::Ordering::Relaxed);
    let tbytes = target.assemble().unwrap().bytes;
    kernel
        .space
        .map(tva, kernel.phys.alloc(), PteFlags::DATA)
        .unwrap();
    kernel
        .space
        .write_bytes(&kernel.phys, tva, &tbytes)
        .unwrap();
    kernel.space.protect(tva, PteFlags::TEXT).unwrap();
    // thunk "returns" into rax=tva, runs the target, whose ret pops the
    // original `call thunk` return address… which then falls to our ret.
    assert_eq!(run(&kernel, &asm, &[tva]), 99);
}

/// Map `bytes` as text at a fresh address; returns it and the frames.
fn map_text(kernel: &Arc<Kernel>, bytes: &[u8], pages: usize) -> (u64, Vec<adelie_vmem::Pfn>) {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x300_0000_0000);
    let va = NEXT.fetch_add(0x10_0000, std::sync::atomic::Ordering::Relaxed);
    let pfns = kernel.phys.alloc_n(pages);
    kernel.space.map_range(va, &pfns, PteFlags::DATA).unwrap();
    kernel.space.write_bytes(&kernel.phys, va, bytes).unwrap();
    kernel
        .space
        .protect_range(va, pages, PteFlags::TEXT)
        .unwrap();
    (va, pfns)
}

/// `mov rax, v; ret` — the same length for every `v`.
fn returns(v: u64) -> Vec<u8> {
    let mut bytes = adelie_isa::encode(&Insn::MovImm64(Reg::Rax, v));
    bytes.extend(adelie_isa::encode(&Insn::Ret));
    bytes
}

#[test]
fn rewritten_code_frame_runs_its_new_bytes() {
    let kernel = Kernel::new(KernelConfig::default());
    let (va, pfns) = map_text(&kernel, &returns(1), 1);
    let mut vm = kernel.vm();
    assert_eq!(vm.call(va, &[]).unwrap(), 1);
    let warm = vm.insn_cache_stats();
    assert_eq!(vm.call(va, &[]).unwrap(), 1);
    assert_eq!(vm.insn_cache_stats().hits, warm.hits + 2, "second run hits");
    kernel.phys.write(pfns[0], 0, &returns(2));
    assert_eq!(vm.call(va, &[]).unwrap(), 2, "stale decode ran");
}

#[test]
fn reused_pfn_never_runs_the_stale_decode() {
    let kernel = Kernel::new(KernelConfig::default());
    let (va, pfns) = map_text(&kernel, &returns(1), 1);
    let mut vm = kernel.vm();
    assert_eq!(vm.call(va, &[]).unwrap(), 1);
    assert_eq!(vm.call(va, &[]).unwrap(), 1);
    kernel.space.unmap(va).unwrap();
    kernel.phys.free(pfns[0]);
    let reused = kernel.phys.alloc();
    assert_eq!(reused, pfns[0], "free-list reuse hands the pfn back");
    kernel.phys.write(reused, 0, &returns(2));
    let va2 = va + 0x1000;
    kernel.space.map(va2, reused, PteFlags::TEXT).unwrap();
    assert_eq!(vm.call(va2, &[]).unwrap(), 2, "stale decode ran");
}

#[test]
fn page_straddling_instruction_decodes_from_both_pages() {
    let kernel = Kernel::new(KernelConfig::default());
    // `mov rax, imm64` (10 bytes) starts 4 bytes before the page end.
    let entry_off = PAGE_SIZE - 4;
    let mut bytes = vec![0x90u8; entry_off];
    bytes.extend(returns(0x1122_3344_5566_7788));
    let (va, pfns) = map_text(&kernel, &bytes, 2);
    let mut vm = kernel.vm();
    for _ in 0..2 {
        assert_eq!(
            vm.call(va + entry_off as u64, &[]).unwrap(),
            0x1122_3344_5566_7788
        );
    }
    // Rewrite only the immediate's tail in the second page: the
    // straddling instruction must pick it up.
    kernel.phys.write(pfns[1], 0, &[0xAA; 6]);
    assert_eq!(
        vm.call(va + entry_off as u64, &[]).unwrap(),
        0xAAAA_AAAA_AAAA_7788
    );
}

#[test]
fn nx_code_page_faults_after_it_ran() {
    let kernel = Kernel::new(KernelConfig::default());
    let (va, _) = map_text(&kernel, &returns(1), 1);
    let mut vm = kernel.vm();
    assert_eq!(vm.call(va, &[]).unwrap(), 1);
    assert_eq!(vm.call(va, &[]).unwrap(), 1);
    kernel.space.protect(va, PteFlags::RO_DATA).unwrap();
    let err = vm.call(va, &[]).unwrap_err();
    assert!(
        matches!(err, VmError::Fault(Fault::NotExecutable { va: f }) if f == va),
        "{err}"
    );
}
