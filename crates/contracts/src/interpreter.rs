//! A mini stack-machine contract interpreter.
//!
//! The paper's key assumption is that contracts are Turing-complete and that
//! their read/write sets cannot be known before execution (they are
//! "derived exclusively via the preplay process", Section 4). The SmallBank
//! procedures alone do not demonstrate that property — their accesses follow
//! directly from the call parameters — so this module provides a small
//! bytecode interpreter whose programs *compute* the keys they access: a
//! program can read a pointer from one storage slot and then dereference it,
//! loop over a runtime-determined range, or branch on stored values.
//!
//! The instruction encoding is deliberately simple (fixed 9-byte
//! instructions: a one-byte opcode and an eight-byte little-endian operand)
//! so that programs are easy to assemble, disassemble and fuzz.

use crate::state::{CallResult, ExecError, StateAccess};
use tb_types::{Key, KeySpace, Value};

/// Maximum number of instructions a single call may execute before it is
/// rejected as out-of-gas. Keeps buggy or adversarial programs from stalling
/// an executor.
pub const DEFAULT_GAS_LIMIT: u64 = 100_000;

/// Maximum operand stack depth.
const MAX_STACK: usize = 1_024;

/// One interpreter instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Push an immediate value.
    Push(i64),
    /// Push the call argument at the given index (missing arguments read 0).
    Arg(u8),
    /// Pop a row number, read `contract/<row>` and push the value.
    Load,
    /// Pop a value, pop a row number, write the value to `contract/<row>`.
    Store,
    /// Pop a space tag and a row number, read that key and push the value.
    LoadSpace,
    /// Pop a value, a space tag and a row number, write the value.
    StoreSpace,
    /// Pop two values, push their sum.
    Add,
    /// Pop two values, push `second - top`.
    Sub,
    /// Pop two values, push their product.
    Mul,
    /// Duplicate the top of the stack.
    Dup,
    /// Discard the top of the stack.
    Pop,
    /// Swap the two topmost values.
    Swap,
    /// Unconditional jump to the instruction index in the operand.
    Jmp(u32),
    /// Pop a value; jump to the operand index if it is zero.
    Jz(u32),
    /// Pop two values, push 1 if `second < top` else 0.
    Lt,
    /// Pop two values, push 1 if `second > top` else 0.
    Gt,
    /// Pop two values, push 1 if they are equal else 0.
    Eq,
    /// Rotate the three topmost values: `.. a b c` becomes `.. b c a`.
    Rot,
    /// Pop the return value and stop successfully.
    Ret,
    /// Stop and mark the call as logically rejected.
    Reject,
}

impl Instr {
    fn opcode(self) -> u8 {
        match self {
            Instr::Push(_) => 0x01,
            Instr::Arg(_) => 0x02,
            Instr::Load => 0x03,
            Instr::Store => 0x04,
            Instr::LoadSpace => 0x05,
            Instr::StoreSpace => 0x06,
            Instr::Add => 0x07,
            Instr::Sub => 0x08,
            Instr::Mul => 0x09,
            Instr::Dup => 0x0A,
            Instr::Pop => 0x0B,
            Instr::Swap => 0x0C,
            Instr::Jmp(_) => 0x0D,
            Instr::Jz(_) => 0x0E,
            Instr::Lt => 0x0F,
            Instr::Gt => 0x10,
            Instr::Eq => 0x11,
            Instr::Ret => 0x12,
            Instr::Reject => 0x13,
            Instr::Rot => 0x14,
        }
    }

    fn operand(self) -> i64 {
        match self {
            Instr::Push(v) => v,
            Instr::Arg(i) => i64::from(i),
            Instr::Jmp(t) | Instr::Jz(t) => i64::from(t),
            _ => 0,
        }
    }

    fn decode(opcode: u8, operand: i64) -> Result<Instr, ExecError> {
        Ok(match opcode {
            0x01 => Instr::Push(operand),
            0x02 => Instr::Arg(u8::try_from(operand).map_err(|_| bad("arg index"))?),
            0x03 => Instr::Load,
            0x04 => Instr::Store,
            0x05 => Instr::LoadSpace,
            0x06 => Instr::StoreSpace,
            0x07 => Instr::Add,
            0x08 => Instr::Sub,
            0x09 => Instr::Mul,
            0x0A => Instr::Dup,
            0x0B => Instr::Pop,
            0x0C => Instr::Swap,
            0x0D => Instr::Jmp(u32::try_from(operand).map_err(|_| bad("jump target"))?),
            0x0E => Instr::Jz(u32::try_from(operand).map_err(|_| bad("jump target"))?),
            0x0F => Instr::Lt,
            0x10 => Instr::Gt,
            0x11 => Instr::Eq,
            0x12 => Instr::Ret,
            0x13 => Instr::Reject,
            0x14 => Instr::Rot,
            other => return Err(bad(format!("unknown opcode 0x{other:02x}"))),
        })
    }
}

fn bad(reason: impl std::fmt::Display) -> ExecError {
    ExecError::invalid(reason.to_string())
}

/// Size of one encoded instruction in bytes.
const INSTR_LEN: usize = 9;

/// An assembled contract program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    code: Vec<u8>,
}

impl Program {
    /// Assembles instructions into bytecode.
    pub fn assemble(instrs: &[Instr]) -> Program {
        let mut code = Vec::with_capacity(instrs.len() * INSTR_LEN);
        for instr in instrs {
            code.push(instr.opcode());
            code.extend_from_slice(&instr.operand().to_le_bytes());
        }
        Program { code }
    }

    /// Wraps raw bytecode (e.g. taken from a [`tb_types::ContractCall`]).
    pub fn from_bytes(code: Vec<u8>) -> Program {
        Program { code }
    }

    /// Consumes the program and returns the bytecode.
    pub fn into_bytes(self) -> Vec<u8> {
        self.code
    }

    /// Disassembles the bytecode back into instructions.
    pub fn instructions(&self) -> Result<Vec<Instr>, ExecError> {
        if !self.code.len().is_multiple_of(INSTR_LEN) {
            return Err(bad("truncated bytecode"));
        }
        self.code
            .chunks_exact(INSTR_LEN)
            .map(|chunk| {
                let operand = i64::from_le_bytes(chunk[1..INSTR_LEN].try_into().expect("9 bytes"));
                Instr::decode(chunk[0], operand)
            })
            .collect()
    }

    /// Runs the program with the default gas limit.
    pub fn run<S: StateAccess + ?Sized>(
        &self,
        args: &[i64],
        state: &mut S,
    ) -> Result<CallResult, ExecError> {
        self.run_with_gas(args, state, DEFAULT_GAS_LIMIT)
    }

    /// Runs the program with an explicit gas limit.
    pub fn run_with_gas<S: StateAccess + ?Sized>(
        &self,
        args: &[i64],
        state: &mut S,
        gas_limit: u64,
    ) -> Result<CallResult, ExecError> {
        let instrs = self.instructions()?;
        let mut stack: Vec<i64> = Vec::with_capacity(16);
        let mut pc: usize = 0;
        let mut gas: u64 = 0;

        macro_rules! pop {
            () => {
                stack.pop().ok_or_else(|| bad("stack underflow"))?
            };
        }
        macro_rules! push {
            ($v:expr) => {{
                if stack.len() >= MAX_STACK {
                    return Err(bad("stack overflow"));
                }
                stack.push($v);
            }};
        }

        while pc < instrs.len() {
            gas += 1;
            if gas > gas_limit {
                return Err(bad("out of gas"));
            }
            let instr = instrs[pc];
            pc += 1;
            match instr {
                Instr::Push(v) => push!(v),
                Instr::Arg(i) => push!(args.get(usize::from(i)).copied().unwrap_or(0)),
                Instr::Load => {
                    let row = pop!();
                    let key = Key::contract(row_to_u64(row)?);
                    let value = state.read(key)?;
                    push!(value.as_int());
                }
                Instr::Store => {
                    let value = pop!();
                    let row = pop!();
                    let key = Key::contract(row_to_u64(row)?);
                    state.write(key, Value::int(value))?;
                }
                Instr::LoadSpace => {
                    let space = pop!();
                    let row = pop!();
                    let key = Key::new(space_from_tag(space)?, row_to_u64(row)?);
                    let value = state.read(key)?;
                    push!(value.as_int());
                }
                Instr::StoreSpace => {
                    let value = pop!();
                    let space = pop!();
                    let row = pop!();
                    let key = Key::new(space_from_tag(space)?, row_to_u64(row)?);
                    state.write(key, Value::int(value))?;
                }
                Instr::Add => {
                    let b = pop!();
                    let a = pop!();
                    push!(a.wrapping_add(b));
                }
                Instr::Sub => {
                    let b = pop!();
                    let a = pop!();
                    push!(a.wrapping_sub(b));
                }
                Instr::Mul => {
                    let b = pop!();
                    let a = pop!();
                    push!(a.wrapping_mul(b));
                }
                Instr::Dup => {
                    let top = *stack.last().ok_or_else(|| bad("stack underflow"))?;
                    push!(top);
                }
                Instr::Pop => {
                    let _ = pop!();
                }
                Instr::Swap => {
                    let b = pop!();
                    let a = pop!();
                    push!(b);
                    push!(a);
                }
                Instr::Jmp(target) => {
                    pc = jump_target(target, instrs.len())?;
                }
                Instr::Jz(target) => {
                    let cond = pop!();
                    if cond == 0 {
                        pc = jump_target(target, instrs.len())?;
                    }
                }
                Instr::Lt => {
                    let b = pop!();
                    let a = pop!();
                    push!(i64::from(a < b));
                }
                Instr::Gt => {
                    let b = pop!();
                    let a = pop!();
                    push!(i64::from(a > b));
                }
                Instr::Eq => {
                    let b = pop!();
                    let a = pop!();
                    push!(i64::from(a == b));
                }
                Instr::Rot => {
                    let c = pop!();
                    let b = pop!();
                    let a = pop!();
                    push!(b);
                    push!(c);
                    push!(a);
                }
                Instr::Ret => {
                    let value = stack.pop().unwrap_or(0);
                    return Ok(CallResult::ok(Value::int(value)));
                }
                Instr::Reject => return Ok(CallResult::rejected()),
            }
        }
        // Falling off the end returns the top of stack (or 0).
        Ok(CallResult::ok(Value::int(stack.pop().unwrap_or(0))))
    }
}

fn row_to_u64(row: i64) -> Result<u64, ExecError> {
    u64::try_from(row).map_err(|_| bad("negative key row"))
}

fn space_from_tag(tag: i64) -> Result<KeySpace, ExecError> {
    KeySpace::ALL
        .into_iter()
        .find(|s| i64::from(s.tag()) == tag)
        .ok_or_else(|| bad(format!("unknown key space tag {tag}")))
}

fn jump_target(target: u32, len: usize) -> Result<usize, ExecError> {
    let target = target as usize;
    if target > len {
        return Err(bad("jump out of range"));
    }
    Ok(target)
}

/// Convenience builders for commonly used contract programs.
///
/// These are used by the workload generator (mixed contract workloads), the
/// examples and the property tests. Every builder returns a [`Program`]
/// together with the argument convention it expects.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProgramBuilder;

impl ProgramBuilder {
    /// `counter_add`: `args = [slot, delta]`; adds `delta` to contract slot
    /// `slot` and returns 0.
    pub fn counter_add() -> Program {
        Program::assemble(&[
            Instr::Arg(0), // slot
            Instr::Dup,    // slot slot
            Instr::Load,   // slot value
            Instr::Arg(1), // slot value delta
            Instr::Add,    // slot new
            Instr::Store,  // (writes contract/slot = new)
            Instr::Push(0),
            Instr::Ret,
        ])
    }

    /// `token_transfer`: `args = [from_slot, to_slot, amount]`; moves
    /// `amount` between two contract slots, rejecting on insufficient funds.
    pub fn token_transfer() -> Program {
        Program::assemble(&[
            // if balance(from) < amount: reject
            Instr::Arg(0),
            Instr::Load,
            Instr::Arg(2),
            Instr::Lt,
            Instr::Jz(6),
            Instr::Reject,
            // from -= amount
            Instr::Arg(0),
            Instr::Arg(0),
            Instr::Load,
            Instr::Arg(2),
            Instr::Sub,
            Instr::Store,
            // to += amount
            Instr::Arg(1),
            Instr::Arg(1),
            Instr::Load,
            Instr::Arg(2),
            Instr::Add,
            Instr::Store,
            Instr::Push(1),
            Instr::Ret,
        ])
    }

    /// `indirect_touch`: `args = [pointer_slot, delta]`; reads a *pointer*
    /// from `pointer_slot` and adds `delta` to the slot the pointer refers
    /// to. The touched key is therefore unknowable without executing the
    /// contract — the paper's motivating case for preplay.
    pub fn indirect_touch() -> Program {
        Program::assemble(&[
            Instr::Arg(0),
            Instr::Load, // pointer value = target slot
            Instr::Dup,
            Instr::Load, // current value of target slot
            Instr::Arg(1),
            Instr::Add,
            Instr::Store, // store new value at target slot
            Instr::Push(0),
            Instr::Ret,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MapState;

    #[test]
    fn assemble_disassemble_round_trip() {
        let instrs = vec![
            Instr::Push(-7),
            Instr::Arg(2),
            Instr::Load,
            Instr::Store,
            Instr::Jmp(3),
            Instr::Jz(0),
            Instr::Ret,
        ];
        let program = Program::assemble(&instrs);
        assert_eq!(program.instructions().unwrap(), instrs);
        assert_eq!(program.code.len(), instrs.len() * 9);
        let rebuilt = Program::from_bytes(program.clone().into_bytes());
        assert_eq!(rebuilt, program);
    }

    #[test]
    fn truncated_bytecode_is_rejected() {
        let program = Program::from_bytes(vec![0x01, 0x00]);
        assert!(program.instructions().is_err());
        let unknown = Program::from_bytes(vec![0xFF; 9]);
        assert!(unknown.instructions().is_err());
    }

    #[test]
    fn arithmetic_and_return() {
        let p = Program::assemble(&[Instr::Push(4), Instr::Push(5), Instr::Mul, Instr::Ret]);
        let mut state = MapState::new();
        let r = p.run(&[], &mut state).unwrap();
        assert_eq!(r.return_value, Value::int(20));
    }

    #[test]
    fn load_and_store_touch_contract_space() {
        // store 42 at slot 3 then load it back
        let p = Program::assemble(&[
            Instr::Push(3),
            Instr::Push(42),
            Instr::Store,
            Instr::Push(3),
            Instr::Load,
            Instr::Ret,
        ]);
        let mut state = MapState::new();
        let r = p.run(&[], &mut state).unwrap();
        assert_eq!(r.return_value, Value::int(42));
        assert_eq!(state.peek(&Key::contract(3)), Value::int(42));
    }

    #[test]
    fn load_space_reads_other_namespaces() {
        let p = Program::assemble(&[
            Instr::Push(7),                                   // row
            Instr::Push(i64::from(KeySpace::Checking.tag())), // space
            Instr::LoadSpace,
            Instr::Ret,
        ]);
        let mut state = MapState::with_entries([(Key::checking(7), Value::int(55))]);
        let r = p.run(&[], &mut state).unwrap();
        assert_eq!(r.return_value, Value::int(55));
    }

    #[test]
    fn store_space_rejects_unknown_tags() {
        let p = Program::assemble(&[
            Instr::Push(1),
            Instr::Push(99),
            Instr::Push(5),
            Instr::StoreSpace,
        ]);
        let mut state = MapState::new();
        let err = p.run(&[], &mut state).unwrap_err();
        assert!(!err.is_abort());
    }

    #[test]
    fn out_of_gas_is_reported() {
        let p = Program::assemble(&[Instr::Jmp(0)]);
        let mut state = MapState::new();
        let err = p.run_with_gas(&[], &mut state, 100).unwrap_err();
        assert_eq!(err, ExecError::invalid("out of gas"));
    }

    #[test]
    fn stack_underflow_is_reported() {
        let p = Program::assemble(&[Instr::Add]);
        let mut state = MapState::new();
        assert!(p.run(&[], &mut state).is_err());
    }

    #[test]
    fn counter_add_builder_works() {
        let p = ProgramBuilder::counter_add();
        let mut state = MapState::with_entries([(Key::contract(9), Value::int(10))]);
        p.run(&[9, 5], &mut state).unwrap();
        assert_eq!(state.peek(&Key::contract(9)), Value::int(15));
        p.run(&[9, -3], &mut state).unwrap();
        assert_eq!(state.peek(&Key::contract(9)), Value::int(12));
    }

    #[test]
    fn token_transfer_builder_moves_and_rejects() {
        let p = ProgramBuilder::token_transfer();
        let mut state = MapState::with_entries([
            (Key::contract(1), Value::int(100)),
            (Key::contract(2), Value::int(0)),
        ]);
        let ok = p.run(&[1, 2, 60], &mut state).unwrap();
        assert!(!ok.logically_aborted);
        assert_eq!(state.peek(&Key::contract(1)), Value::int(40));
        assert_eq!(state.peek(&Key::contract(2)), Value::int(60));

        let rejected = p.run(&[1, 2, 60], &mut state).unwrap();
        assert!(rejected.logically_aborted);
        assert_eq!(state.peek(&Key::contract(1)), Value::int(40));
    }

    #[test]
    fn indirect_touch_accesses_a_runtime_determined_key() {
        let p = ProgramBuilder::indirect_touch();
        // Slot 1 points at slot 7.
        let mut state = MapState::with_entries([
            (Key::contract(1), Value::int(7)),
            (Key::contract(7), Value::int(100)),
        ]);
        p.run(&[1, 11], &mut state).unwrap();
        assert_eq!(state.peek(&Key::contract(7)), Value::int(111));
        // Redirect the pointer: the same program now touches a different key.
        state.write(Key::contract(1), Value::int(8)).unwrap();
        p.run(&[1, 5], &mut state).unwrap();
        assert_eq!(state.peek(&Key::contract(8)), Value::int(5));
        assert_eq!(state.peek(&Key::contract(7)), Value::int(111));
    }

    /// `range_sum`: `args = [start_slot, count]`; sums `count` consecutive
    /// contract slots starting at `start_slot` and returns the sum. The
    /// number of reads depends on a runtime argument.
    fn range_sum() -> Program {
        // Stack registers: [acc, i] with the loop counter on top.
        Program::assemble(&[
            Instr::Push(0), // 0: acc
            Instr::Push(0), // 1: i
            // loop head (2): if i == count goto exit(6), else goto body(8)
            Instr::Dup,    // 2: acc i i
            Instr::Arg(1), // 3: acc i i count
            Instr::Eq,     // 4: acc i eq
            Instr::Jz(8),  // 5: not yet done -> body
            Instr::Pop,    // 6: acc
            Instr::Ret,    // 7: return acc
            // body (8): acc += load(start + i); i += 1
            Instr::Dup,     // 8: acc i i
            Instr::Arg(0),  // 9: acc i i start
            Instr::Add,     // 10: acc i (start+i)
            Instr::Load,    // 11: acc i v
            Instr::Rot,     // 12: i v acc
            Instr::Add,     // 13: i acc'
            Instr::Swap,    // 14: acc' i
            Instr::Push(1), // 15: acc' i 1
            Instr::Add,     // 16: acc' (i+1)
            Instr::Jmp(2),  // 17: loop
        ])
    }

    #[test]
    fn range_sum_loops_a_runtime_determined_number_of_times() {
        let p = range_sum();
        let mut state = MapState::with_entries(
            (0..5u64).map(|i| (Key::contract(10 + i), Value::int(i as i64 + 1))),
        );
        let r = p.run(&[10, 5], &mut state).unwrap();
        assert_eq!(r.return_value, Value::int(15));
        let r2 = p.run(&[10, 2], &mut state).unwrap();
        assert_eq!(r2.return_value, Value::int(3));
        let r0 = p.run(&[10, 0], &mut state).unwrap();
        assert_eq!(r0.return_value, Value::int(0));
    }

    #[test]
    fn negative_key_rows_are_invalid() {
        let p = Program::assemble(&[Instr::Push(-1), Instr::Load, Instr::Ret]);
        let mut state = MapState::new();
        assert!(p.run(&[], &mut state).is_err());
    }
}
