//! The CPU execution context workloads run against.
//!
//! [`Cpu`] models the software-visible behaviour of an in-order 32-bit
//! embedded core at block granularity: a real call stack with per-function
//! frames spilled to the program's stack block, instruction fetches
//! walking sequentially through the current code block, and word/byte
//! loads and stores against data blocks. All memory traffic is routed
//! through the [`Machine`] so every access is timed, metered, and visible
//! to the attached [`Observer`].

use crate::observer::Observer;
use crate::{BlockId, BlockKind, Machine, SimError};

/// Knobs for the execution model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Charge one instruction fetch for each load/store issued (the
    /// `ldr`/`str` opcode itself). On by default; disable for pure
    /// trace-replay experiments.
    pub fetch_per_data_op: bool,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            fetch_per_data_op: true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    block: BlockId,
    pc: u32,
    frame_base: u32,
}

/// One architectural operation issued through the public [`Cpu`] op API.
///
/// This is the unit an access-trace recorder captures: re-issuing the
/// same op sequence against a freshly initialised machine reproduces the
/// exact memory event stream, because everything below this level
/// (spill/reload traffic on call/ret, the implicit instruction fetch
/// charged per data op, byte-merge reads) is *derived* by the `Cpu` from
/// these ops and the machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOp {
    /// [`Cpu::call`] into a code block.
    Call {
        /// The callee code block.
        block: BlockId,
    },
    /// [`Cpu::ret`] from the current frame.
    Ret,
    /// [`Cpu::execute`]: `count` straight-line instruction fetches.
    Execute {
        /// Instructions fetched.
        count: u32,
    },
    /// [`Cpu::read_u32`] (also issued by `read_u8`, which decomposes to
    /// a word read).
    Read {
        /// The data block read.
        block: BlockId,
        /// Byte offset of the word.
        offset: u32,
        /// The value the load observed.
        value: u32,
    },
    /// [`Cpu::write_u32`] (also issued by `write_u8` after the byte
    /// merge).
    Write {
        /// The data block written.
        block: BlockId,
        /// Byte offset of the word.
        offset: u32,
        /// The value stored.
        value: u32,
    },
    /// [`Cpu::stack_read_u32`]; `offset` is frame-relative.
    StackRead {
        /// Frame-relative byte offset.
        offset: u32,
        /// The value the load observed.
        value: u32,
    },
    /// [`Cpu::stack_write_u32`]; `offset` is frame-relative.
    StackWrite {
        /// Frame-relative byte offset.
        offset: u32,
        /// The value stored.
        value: u32,
    },
}

/// Detachable CPU execution state: the call stack and stack pointer of
/// one hardware thread.
///
/// A multi-core run interleaves bounded steps of several logical CPUs
/// over one shared [`Machine`], but only one [`Cpu`] (a mutable machine
/// borrow) can exist at a time. Each core therefore keeps its
/// architectural state in a `CpuState` and swaps it into a freshly
/// borrowed `Cpu` for the duration of its step
/// (see [`crate::MultiMachine::with_core`]).
#[derive(Debug, Clone, Default)]
pub struct CpuState {
    call_stack: Vec<Frame>,
    sp: u32,
    max_sp: u32,
}

impl CpuState {
    /// A fresh state with an empty call stack and `sp = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh state whose stack pointer starts at byte `base` of the
    /// program's stack block. Cores of a multi-core run partition the
    /// single stack block into disjoint per-core slices this way.
    pub fn with_stack_base(base: u32) -> Self {
        Self {
            call_stack: Vec::new(),
            sp: base,
            max_sp: base,
        }
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.call_stack.len()
    }

    /// Peak stack occupancy so far, bytes (from the block start, so a
    /// non-zero stack base is included).
    pub fn max_stack_bytes(&self) -> u32 {
        self.max_sp
    }
}

/// A tapped op plus the machine cycle at which it was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TappedOp {
    /// Machine cycle when the op was issued (before it ran).
    pub cycle: u64,
    /// The op itself.
    pub op: CpuOp,
}

/// Execution context: borrows the machine and an observer for the duration
/// of one workload run.
pub struct Cpu<'m, 'o> {
    machine: &'m mut Machine,
    observer: &'o mut dyn Observer,
    config: CpuConfig,
    call_stack: Vec<Frame>,
    sp: u32,
    max_sp: u32,
    op_tap: Option<Vec<TappedOp>>,
}

impl<'m, 'o> Cpu<'m, 'o> {
    /// Creates a CPU over `machine`, reporting to `observer`.
    pub fn new(machine: &'m mut Machine, observer: &'o mut dyn Observer) -> Self {
        Self::with_config(machine, observer, CpuConfig::default())
    }

    /// Creates a CPU with an explicit configuration.
    pub fn with_config(
        machine: &'m mut Machine,
        observer: &'o mut dyn Observer,
        config: CpuConfig,
    ) -> Self {
        machine.set_observes_accesses(observer.observes_accesses());
        Self {
            machine,
            observer,
            config,
            call_stack: Vec::new(),
            sp: 0,
            max_sp: 0,
            op_tap: None,
        }
    }

    /// Swaps this CPU's architectural state (call stack, stack pointer)
    /// with `state`. Swapping in before a bounded step and back out after
    /// lets several logical cores time-share one machine borrow without
    /// losing their call stacks between steps.
    pub fn swap_state(&mut self, state: &mut CpuState) {
        std::mem::swap(&mut self.call_stack, &mut state.call_stack);
        std::mem::swap(&mut self.sp, &mut state.sp);
        std::mem::swap(&mut self.max_sp, &mut state.max_sp);
    }

    /// Starts capturing every successful public op into an in-memory
    /// buffer (see [`CpuOp`]). Internal traffic — spill/reload on
    /// call/ret, the implicit fetch charged per data op — is *not*
    /// captured: replaying the tapped ops regenerates it.
    pub fn start_op_tap(&mut self) {
        self.op_tap = Some(Vec::new());
    }

    /// Stops the tap and returns the captured ops (empty if the tap was
    /// never started).
    pub fn take_op_tap(&mut self) -> Vec<TappedOp> {
        self.op_tap.take().unwrap_or_default()
    }

    #[inline]
    fn tap(&mut self, cycle: u64, op: CpuOp) {
        if let Some(buf) = self.op_tap.as_mut() {
            buf.push(TappedOp { cycle, op });
        }
    }

    /// The machine being driven.
    pub fn machine(&self) -> &Machine {
        &*self.machine
    }

    /// Elapsed cycles.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.machine.cycle()
    }

    /// The currently executing code block, if any.
    pub fn current_block(&self) -> Option<BlockId> {
        self.call_stack.last().map(|f| f.block)
    }

    /// Peak stack occupancy so far, bytes.
    pub fn max_stack_bytes(&self) -> u32 {
        self.max_sp
    }

    #[inline]
    fn stack_block(&self) -> Result<BlockId, SimError> {
        self.machine
            .program()
            .stack_block()
            .ok_or(SimError::NoStackBlock)
    }

    /// Calls into code block `block`: pushes a stack frame, spills the
    /// callee-saved registers to the stack block, and fetches the
    /// function prologue.
    ///
    /// # Errors
    ///
    /// [`SimError::WrongBlockKind`] if `block` is not code,
    /// [`SimError::StackOverflow`] if the frame does not fit the stack
    /// block, [`SimError::NoStackBlock`] if frames are non-empty but the
    /// program declared no stack.
    #[inline]
    pub fn call(&mut self, block: BlockId) -> Result<(), SimError> {
        let cycle = self.machine.cycle();
        let spec = self.machine.program().block(block);
        if spec.kind() != BlockKind::Code {
            return Err(SimError::WrongBlockKind { block });
        }
        let frame_bytes = spec.frame_bytes();
        let spill_words = spec.spill_words;
        let frame_base = self.sp;
        if frame_bytes > 0 || spill_words > 0 {
            let stack = self.stack_block()?;
            let capacity = self.machine.program().block(stack).size_bytes();
            let required = self.sp + frame_bytes.max(spill_words * 4);
            if required > capacity {
                return Err(SimError::StackOverflow { required, capacity });
            }
            self.sp += frame_bytes.max(spill_words * 4);
            self.max_sp = self.max_sp.max(self.sp);
            // Spill registers into the new frame.
            for w in 0..spill_words {
                self.machine
                    .write_word(stack, frame_base + w * 4, 0, self.observer)?;
            }
        }
        self.call_stack.push(Frame {
            block,
            pc: 0,
            frame_base,
        });
        self.observer.on_block_enter(block, self.machine.cycle());
        self.observer.on_stack_depth(block, self.sp);
        self.tap(cycle, CpuOp::Call { block });
        Ok(())
    }

    /// Returns from the current code block: reloads spilled registers and
    /// pops the frame.
    ///
    /// # Errors
    ///
    /// [`SimError::CallStackUnderflow`] if no call is active.
    #[inline]
    pub fn ret(&mut self) -> Result<(), SimError> {
        let cycle = self.machine.cycle();
        let frame = self.call_stack.pop().ok_or(SimError::CallStackUnderflow)?;
        let spec = self.machine.program().block(frame.block);
        let spill_words = spec.spill_words;
        let frame_bytes = spec.frame_bytes().max(spill_words * 4);
        if frame_bytes > 0 {
            let stack = self.stack_block()?;
            for w in 0..spill_words {
                self.machine
                    .read_word(stack, frame.frame_base + w * 4, self.observer)?;
            }
            self.sp = self.sp.saturating_sub(frame_bytes);
        }
        self.observer
            .on_block_exit(frame.block, self.machine.cycle());
        self.tap(cycle, CpuOp::Ret);
        Ok(())
    }

    /// Executes `count` straight-line instructions of the current block
    /// (fetches walk sequentially, wrapping at the block end).
    ///
    /// # Errors
    ///
    /// [`SimError::CallStackUnderflow`] if no code block is active.
    #[inline]
    pub fn execute(&mut self, count: u32) -> Result<(), SimError> {
        if count == 0 {
            return Ok(());
        }
        let cycle = self.machine.cycle();
        self.fetch_ops(count)?;
        self.tap(cycle, CpuOp::Execute { count });
        Ok(())
    }

    /// The untapped fetch path: also used for the implicit fetch charged
    /// per data op, which a tap must NOT capture — replaying the data op
    /// regenerates it.
    #[inline]
    fn fetch_ops(&mut self, count: u32) -> Result<(), SimError> {
        if count == 0 {
            return Ok(());
        }
        let frame = *self.call_stack.last().ok_or(SimError::CallStackUnderflow)?;
        let new_pc = self
            .machine
            .fetch(frame.block, frame.pc, count, self.observer)?;
        if let Some(f) = self.call_stack.last_mut() {
            f.pc = new_pc;
        }
        Ok(())
    }

    #[inline]
    fn data_op_fetch(&mut self) -> Result<(), SimError> {
        if self.config.fetch_per_data_op && !self.call_stack.is_empty() {
            self.fetch_ops(1)?;
        }
        Ok(())
    }

    /// Loads an aligned 32-bit word from `block` at byte `offset`.
    ///
    /// # Errors
    ///
    /// [`SimError::OffsetOutOfBounds`] on a bad offset.
    #[inline]
    pub fn read_u32(&mut self, block: BlockId, offset: u32) -> Result<u32, SimError> {
        let cycle = self.machine.cycle();
        self.data_op_fetch()?;
        let value = self.machine.read_word(block, offset, self.observer)?;
        self.tap(
            cycle,
            CpuOp::Read {
                block,
                offset,
                value,
            },
        );
        Ok(value)
    }

    /// Stores an aligned 32-bit word.
    ///
    /// # Errors
    ///
    /// [`SimError::OffsetOutOfBounds`] on a bad offset.
    #[inline]
    pub fn write_u32(&mut self, block: BlockId, offset: u32, value: u32) -> Result<(), SimError> {
        let cycle = self.machine.cycle();
        self.data_op_fetch()?;
        self.machine
            .write_word(block, offset, value, self.observer)?;
        self.tap(
            cycle,
            CpuOp::Write {
                block,
                offset,
                value,
            },
        );
        Ok(())
    }

    /// Loads one byte (the hardware reads the containing word).
    ///
    /// # Errors
    ///
    /// [`SimError::OffsetOutOfBounds`] on a bad offset.
    #[inline]
    pub fn read_u8(&mut self, block: BlockId, offset: u32) -> Result<u8, SimError> {
        let word_off = offset & !3;
        let word = self.read_u32(block, word_off)?;
        Ok((word >> ((offset & 3) * 8)) as u8)
    }

    /// Stores one byte (byte-enable write: one word write is charged).
    ///
    /// # Errors
    ///
    /// [`SimError::OffsetOutOfBounds`] on a bad offset.
    #[inline]
    pub fn write_u8(&mut self, block: BlockId, offset: u32, value: u8) -> Result<(), SimError> {
        let word_off = offset & !3;
        // Peek the current word without charging a second access: hardware
        // merges the byte via byte enables.
        let current = self.machine.peek_block_word(block, word_off)?;
        let shift = (offset & 3) * 8;
        let merged = (current & !(0xFFu32 << shift)) | (u32::from(value) << shift);
        self.write_u32(block, word_off, merged)
    }

    /// Reads a 32-bit word of the current stack frame (`offset` is
    /// frame-relative).
    ///
    /// # Errors
    ///
    /// Propagates bounds/underflow errors.
    #[inline]
    pub fn stack_read_u32(&mut self, offset: u32) -> Result<u32, SimError> {
        let cycle = self.machine.cycle();
        let frame = *self.call_stack.last().ok_or(SimError::CallStackUnderflow)?;
        let stack = self.stack_block()?;
        self.data_op_fetch()?;
        let value = self
            .machine
            .read_word(stack, frame.frame_base + offset, self.observer)?;
        self.tap(cycle, CpuOp::StackRead { offset, value });
        Ok(value)
    }

    /// Writes a 32-bit word of the current stack frame.
    ///
    /// # Errors
    ///
    /// Propagates bounds/underflow errors.
    #[inline]
    pub fn stack_write_u32(&mut self, offset: u32, value: u32) -> Result<(), SimError> {
        let cycle = self.machine.cycle();
        let frame = *self.call_stack.last().ok_or(SimError::CallStackUnderflow)?;
        let stack = self.stack_block()?;
        self.data_op_fetch()?;
        self.machine
            .write_word(stack, frame.frame_base + offset, value, self.observer)?;
        self.tap(cycle, CpuOp::StackWrite { offset, value });
        Ok(())
    }
}

impl std::fmt::Debug for Cpu<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("cycle", &self.machine.cycle())
            .field("depth", &self.call_stack.len())
            .field("sp", &self.sp)
            .finish()
    }
}
