//! The SmallBank contract suite (paper Section 11.2).
//!
//! SmallBank models a retail bank: every account has a checking and a
//! savings balance, and six stored procedures update or query them. The
//! evaluation focuses on `SendPayment` (read-modify-write of two checking
//! balances) and `GetBalance` (read-only), mixed according to the `Pr`
//! parameter.
//!
//! The procedures are written against [`StateAccess`], so the exact same
//! code runs during preplay in the concurrent executor, under the OCC and
//! 2PL baselines, during post-consensus validation and during deterministic
//! cross-shard execution.

use crate::state::{CallResult, ExecError, StateAccess};
use tb_types::{Key, SmallBankProcedure, Value};

/// Default balance every account is created with by the workload generator.
/// Large enough that logical rejections (insufficient funds) are rare, as in
/// the paper's setup.
pub const SMALLBANK_DEFAULT_BALANCE: i64 = 100_000;

/// Executes one SmallBank procedure against `state`.
pub fn execute_smallbank<S: StateAccess + ?Sized>(
    proc_: &SmallBankProcedure,
    state: &mut S,
) -> Result<CallResult, ExecError> {
    match proc_ {
        SmallBankProcedure::GetBalance { account } => get_balance(*account, state),
        SmallBankProcedure::DepositChecking { account, amount } => {
            deposit_checking(*account, *amount, state)
        }
        SmallBankProcedure::TransactSavings { account, amount } => {
            transact_savings(*account, *amount, state)
        }
        SmallBankProcedure::WriteCheck { account, amount } => write_check(*account, *amount, state),
        SmallBankProcedure::SendPayment { from, to, amount } => {
            send_payment(*from, *to, *amount, state)
        }
        SmallBankProcedure::Amalgamate { from, to } => amalgamate(*from, *to, state),
    }
}

/// `GetBalance`: return checking + savings of the account.
fn get_balance<S: StateAccess + ?Sized>(
    account: u64,
    state: &mut S,
) -> Result<CallResult, ExecError> {
    let checking = state.read(Key::checking(account))?.as_int();
    let savings = state.read(Key::savings(account))?.as_int();
    Ok(CallResult::ok(Value::int(checking + savings)))
}

/// `DepositChecking`: add a non-negative amount to the checking balance.
fn deposit_checking<S: StateAccess + ?Sized>(
    account: u64,
    amount: i64,
    state: &mut S,
) -> Result<CallResult, ExecError> {
    if amount < 0 {
        return Ok(CallResult::rejected());
    }
    let checking = state.read(Key::checking(account))?.as_int();
    state.write(Key::checking(account), Value::int(checking + amount))?;
    Ok(CallResult::ok(Value::int(checking + amount)))
}

/// `TransactSavings`: add `amount` (possibly negative) to savings, rejecting
/// the call if the resulting balance would be negative.
fn transact_savings<S: StateAccess + ?Sized>(
    account: u64,
    amount: i64,
    state: &mut S,
) -> Result<CallResult, ExecError> {
    let savings = state.read(Key::savings(account))?.as_int();
    let new_balance = savings + amount;
    if new_balance < 0 {
        return Ok(CallResult::rejected());
    }
    state.write(Key::savings(account), Value::int(new_balance))?;
    Ok(CallResult::ok(Value::int(new_balance)))
}

/// `WriteCheck`: subtract the check amount from checking; if the combined
/// balance cannot cover it, an overdraft penalty of 1 is added.
fn write_check<S: StateAccess + ?Sized>(
    account: u64,
    amount: i64,
    state: &mut S,
) -> Result<CallResult, ExecError> {
    let savings = state.read(Key::savings(account))?.as_int();
    let checking = state.read(Key::checking(account))?.as_int();
    let total = savings + checking;
    let deducted = if total < amount { amount + 1 } else { amount };
    state.write(Key::checking(account), Value::int(checking - deducted))?;
    Ok(CallResult::ok(Value::int(checking - deducted)))
}

/// `SendPayment`: move `amount` from one checking balance to another,
/// rejecting the call if funds are insufficient.
fn send_payment<S: StateAccess + ?Sized>(
    from: u64,
    to: u64,
    amount: i64,
    state: &mut S,
) -> Result<CallResult, ExecError> {
    if amount < 0 {
        return Ok(CallResult::rejected());
    }
    let from_checking = state.read(Key::checking(from))?.as_int();
    if from_checking < amount {
        return Ok(CallResult::rejected());
    }
    state.write(Key::checking(from), Value::int(from_checking - amount))?;
    if from == to {
        // Self-payment: the balance is unchanged overall; write the original
        // value back so the write set still reflects the access.
        state.write(Key::checking(from), Value::int(from_checking))?;
        return Ok(CallResult::ok(Value::int(from_checking)));
    }
    let to_checking = state.read(Key::checking(to))?.as_int();
    state.write(Key::checking(to), Value::int(to_checking + amount))?;
    Ok(CallResult::ok(Value::int(from_checking - amount)))
}

/// `Amalgamate`: move the entire balance (savings + checking) of `from` into
/// the checking balance of `to`.
fn amalgamate<S: StateAccess + ?Sized>(
    from: u64,
    to: u64,
    state: &mut S,
) -> Result<CallResult, ExecError> {
    let from_savings = state.read(Key::savings(from))?.as_int();
    let from_checking = state.read(Key::checking(from))?.as_int();
    let total = from_savings + from_checking;
    if from == to {
        // Moving everything into one's own checking account.
        state.write(Key::savings(from), Value::int(0))?;
        state.write(Key::checking(from), Value::int(total))?;
        return Ok(CallResult::ok(Value::int(total)));
    }
    state.write(Key::savings(from), Value::int(0))?;
    state.write(Key::checking(from), Value::int(0))?;
    let to_checking = state.read(Key::checking(to))?.as_int();
    state.write(Key::checking(to), Value::int(to_checking + total))?;
    Ok(CallResult::ok(Value::int(to_checking + total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MapState;

    fn bank(accounts: &[(u64, i64, i64)]) -> MapState<'static> {
        MapState::with_entries(accounts.iter().flat_map(|(a, c, s)| {
            [
                (Key::checking(*a), Value::int(*c)),
                (Key::savings(*a), Value::int(*s)),
            ]
        }))
    }

    #[test]
    fn get_balance_sums_both_accounts() {
        let mut state = bank(&[(1, 30, 12)]);
        let r =
            execute_smallbank(&SmallBankProcedure::GetBalance { account: 1 }, &mut state).unwrap();
        assert_eq!(r.return_value, Value::int(42));
        assert!(!r.logically_aborted);
    }

    #[test]
    fn deposit_checking_adds_and_rejects_negative() {
        let mut state = bank(&[(1, 10, 0)]);
        let ok = execute_smallbank(
            &SmallBankProcedure::DepositChecking {
                account: 1,
                amount: 5,
            },
            &mut state,
        )
        .unwrap();
        assert_eq!(ok.return_value, Value::int(15));
        assert_eq!(state.peek(&Key::checking(1)), Value::int(15));

        let rejected = execute_smallbank(
            &SmallBankProcedure::DepositChecking {
                account: 1,
                amount: -5,
            },
            &mut state,
        )
        .unwrap();
        assert!(rejected.logically_aborted);
        assert_eq!(state.peek(&Key::checking(1)), Value::int(15));
    }

    #[test]
    fn transact_savings_rejects_overdraft() {
        let mut state = bank(&[(2, 0, 10)]);
        let ok = execute_smallbank(
            &SmallBankProcedure::TransactSavings {
                account: 2,
                amount: -4,
            },
            &mut state,
        )
        .unwrap();
        assert_eq!(ok.return_value, Value::int(6));
        let rejected = execute_smallbank(
            &SmallBankProcedure::TransactSavings {
                account: 2,
                amount: -100,
            },
            &mut state,
        )
        .unwrap();
        assert!(rejected.logically_aborted);
        assert_eq!(state.peek(&Key::savings(2)), Value::int(6));
    }

    #[test]
    fn write_check_applies_penalty_when_overdrawn() {
        let mut state = bank(&[(3, 5, 5)]);
        // Sufficient funds: no penalty.
        let r = execute_smallbank(
            &SmallBankProcedure::WriteCheck {
                account: 3,
                amount: 8,
            },
            &mut state,
        )
        .unwrap();
        assert_eq!(r.return_value, Value::int(-3));
        // Now total = -3 + 5 = 2 < 10, so a penalty of one applies.
        let r = execute_smallbank(
            &SmallBankProcedure::WriteCheck {
                account: 3,
                amount: 10,
            },
            &mut state,
        )
        .unwrap();
        assert_eq!(r.return_value, Value::int(-14));
    }

    #[test]
    fn send_payment_moves_money_and_conserves_total() {
        let mut state = bank(&[(1, 100, 0), (2, 50, 0)]);
        let r = execute_smallbank(
            &SmallBankProcedure::SendPayment {
                from: 1,
                to: 2,
                amount: 30,
            },
            &mut state,
        )
        .unwrap();
        assert!(!r.logically_aborted);
        assert_eq!(state.peek(&Key::checking(1)), Value::int(70));
        assert_eq!(state.peek(&Key::checking(2)), Value::int(80));
    }

    #[test]
    fn send_payment_rejects_insufficient_funds_without_writes() {
        let mut state = bank(&[(1, 10, 0), (2, 0, 0)]);
        let r = execute_smallbank(
            &SmallBankProcedure::SendPayment {
                from: 1,
                to: 2,
                amount: 30,
            },
            &mut state,
        )
        .unwrap();
        assert!(r.logically_aborted);
        assert_eq!(state.peek(&Key::checking(1)), Value::int(10));
        assert_eq!(state.peek(&Key::checking(2)), Value::int(0));
    }

    #[test]
    fn send_payment_to_self_keeps_balance() {
        let mut state = bank(&[(5, 40, 0)]);
        let r = execute_smallbank(
            &SmallBankProcedure::SendPayment {
                from: 5,
                to: 5,
                amount: 10,
            },
            &mut state,
        )
        .unwrap();
        assert!(!r.logically_aborted);
        assert_eq!(state.peek(&Key::checking(5)), Value::int(40));
    }

    #[test]
    fn amalgamate_empties_source_into_destination_checking() {
        let mut state = bank(&[(1, 10, 20), (2, 5, 7)]);
        let r = execute_smallbank(
            &SmallBankProcedure::Amalgamate { from: 1, to: 2 },
            &mut state,
        )
        .unwrap();
        assert_eq!(r.return_value, Value::int(35));
        assert_eq!(state.peek(&Key::checking(1)), Value::int(0));
        assert_eq!(state.peek(&Key::savings(1)), Value::int(0));
        assert_eq!(state.peek(&Key::checking(2)), Value::int(35));
        assert_eq!(state.peek(&Key::savings(2)), Value::int(7));
    }

    #[test]
    fn amalgamate_to_self_moves_savings_into_checking() {
        let mut state = bank(&[(4, 10, 15)]);
        let r = execute_smallbank(
            &SmallBankProcedure::Amalgamate { from: 4, to: 4 },
            &mut state,
        )
        .unwrap();
        assert_eq!(r.return_value, Value::int(25));
        assert_eq!(state.peek(&Key::checking(4)), Value::int(25));
        assert_eq!(state.peek(&Key::savings(4)), Value::int(0));
    }

    #[test]
    fn missing_accounts_read_as_zero() {
        let mut state = MapState::new();
        let r =
            execute_smallbank(&SmallBankProcedure::GetBalance { account: 99 }, &mut state).unwrap();
        assert_eq!(r.return_value, Value::int(0));
    }
}
