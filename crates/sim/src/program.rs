//! Programs and the [`ProgramBuilder`].
//!
//! A [`Program`] is an immutable, validated, pre-compiled description of a
//! concurrent workload: shared objects with initial values, one script per
//! thread (compiled to a flat instruction array with explicit jumps so the
//! interpreter needs no call stack), and a set of final assertions checked
//! after all threads terminate.

use std::fmt;
use std::sync::Arc;

use crate::error::BuildError;
use crate::expr::Expr;
use crate::footprint::MAX_VARS;
use crate::ids::{CondId, MutexId, RwId, SemId, ThreadId, VarId};
use crate::locals::MAX_LOCALS;
use crate::stmt::Stmt;
use crate::trace::MAX_THREADS;

/// A flat instruction, produced by compiling a statement tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Instr {
    /// A visible operation (never `If`/`While`/`LocalSet`).
    Op(Stmt),
    /// Set a local register. Purely local.
    LocalSet { name: &'static str, value: Expr },
    /// Unconditional jump. Purely local.
    Jump(usize),
    /// Jump when the condition evaluates to zero. Purely local.
    JumpIfZero(Expr, usize),
}

/// One thread of a program.
#[derive(Debug, Clone)]
pub struct ThreadDef {
    name: &'static str,
    body: Arc<Vec<Stmt>>,
    code: Arc<Vec<Instr>>,
    auto_start: bool,
}

impl ThreadDef {
    /// The thread's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The original (uncompiled) statement list.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// `true` when the thread starts automatically; `false` for threads
    /// started by [`Stmt::Spawn`].
    pub fn auto_start(&self) -> bool {
        self.auto_start
    }

    pub(crate) fn code(&self) -> &Arc<Vec<Instr>> {
        &self.code
    }
}

/// A validated, executable program. Create with [`ProgramBuilder`].
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    threads: Arc<Vec<ThreadDef>>,
    var_names: Arc<Vec<&'static str>>,
    var_init: Arc<Vec<i64>>,
    n_mutexes: usize,
    n_conds: usize,
    n_rws: usize,
    sem_init: Arc<Vec<i64>>,
    final_asserts: Arc<Vec<(Expr, &'static str)>>,
}

impl Program {
    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// The thread definitions.
    pub fn threads(&self) -> &[ThreadDef] {
        &self.threads
    }

    /// Looks up a thread by name.
    pub fn thread_by_name(&self, name: &str) -> Option<ThreadId> {
        self.threads
            .iter()
            .position(|t| t.name == name)
            .map(ThreadId::from_index)
    }

    /// Number of shared variables.
    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Name of a shared variable.
    pub fn var_name(&self, var: VarId) -> &'static str {
        self.var_names[var.index()]
    }

    /// Initial values of the shared variables.
    pub fn var_init(&self) -> &[i64] {
        &self.var_init
    }

    /// Number of mutexes.
    pub fn n_mutexes(&self) -> usize {
        self.n_mutexes
    }

    /// Number of condition variables.
    pub fn n_conds(&self) -> usize {
        self.n_conds
    }

    /// Number of reader-writer locks.
    pub fn n_rws(&self) -> usize {
        self.n_rws
    }

    /// Initial counts of the semaphores.
    pub fn sem_init(&self) -> &[i64] {
        &self.sem_init
    }

    /// The final assertions (condition, message).
    pub fn final_asserts(&self) -> &[(Expr, &'static str)] {
        &self.final_asserts
    }

    /// Total number of visible operations across all thread scripts, an
    /// upper bound useful for sizing exploration budgets. Loops make the
    /// dynamic count larger; this is the *static* count.
    pub fn static_visible_ops(&self) -> usize {
        self.threads
            .iter()
            .map(|t| t.code.iter().filter(|i| matches!(i, Instr::Op(_))).count())
            .sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} threads, {} vars, {} mutexes)",
            self.name,
            self.n_threads(),
            self.n_vars(),
            self.n_mutexes
        )
    }
}

/// Builder for [`Program`] (C-BUILDER).
///
/// ```rust
/// use lfm_sim::{ProgramBuilder, Stmt, Expr};
///
/// # fn main() -> Result<(), lfm_sim::BuildError> {
/// let mut b = ProgramBuilder::new("demo");
/// let flag = b.var("flag", 0);
/// let m = b.mutex();
/// b.thread("writer", vec![
///     Stmt::lock(m),
///     Stmt::write(flag, 1),
///     Stmt::unlock(m),
/// ]);
/// let program = b.build()?;
/// assert_eq!(program.n_threads(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    threads: Vec<(ThreadId, &'static str, Vec<Stmt>, bool)>,
    var_names: Vec<&'static str>,
    var_init: Vec<i64>,
    n_mutexes: usize,
    n_conds: usize,
    n_rws: usize,
    sem_init: Vec<i64>,
    final_asserts: Vec<(Expr, &'static str)>,
    next_thread: u32,
}

impl ProgramBuilder {
    /// Starts building a program.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            ..ProgramBuilder::default()
        }
    }

    /// Declares a shared variable with an initial value.
    pub fn var(&mut self, name: &'static str, init: i64) -> VarId {
        let id = VarId::from_index(self.var_names.len());
        self.var_names.push(name);
        self.var_init.push(init);
        id
    }

    /// Declares a mutex.
    pub fn mutex(&mut self) -> MutexId {
        let id = MutexId::from_index(self.n_mutexes);
        self.n_mutexes += 1;
        id
    }

    /// Declares a condition variable.
    pub fn cond(&mut self) -> CondId {
        let id = CondId::from_index(self.n_conds);
        self.n_conds += 1;
        id
    }

    /// Declares a reader-writer lock.
    pub fn rwlock(&mut self) -> RwId {
        let id = RwId::from_index(self.n_rws);
        self.n_rws += 1;
        id
    }

    /// Declares a counting semaphore with an initial count.
    pub fn semaphore(&mut self, initial: i64) -> SemId {
        let id = SemId::from_index(self.sem_init.len());
        self.sem_init.push(initial);
        id
    }

    /// Adds a thread that starts automatically.
    pub fn thread(&mut self, name: &'static str, body: Vec<Stmt>) -> ThreadId {
        self.add_thread(name, body, true)
    }

    /// Adds a thread started later by [`Stmt::Spawn`]; until spawned it is
    /// not runnable.
    pub fn thread_deferred(&mut self, name: &'static str, body: Vec<Stmt>) -> ThreadId {
        self.add_thread(name, body, false)
    }

    fn add_thread(&mut self, name: &'static str, body: Vec<Stmt>, auto: bool) -> ThreadId {
        let id = ThreadId(self.next_thread);
        self.next_thread += 1;
        self.threads.push((id, name, body, auto));
        id
    }

    /// Adds a final assertion, checked after every thread has finished.
    /// Unlike thread bodies, the condition may read shared variables
    /// directly via [`Expr::shared`].
    pub fn final_assert(&mut self, cond: Expr, msg: &'static str) -> &mut Self {
        self.final_asserts.push((cond, msg));
        self
    }

    /// Validates and compiles the program.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the program is structurally invalid:
    /// no threads, `Expr::Shared` inside a thread body, unbalanced or
    /// nested transactions, blocking synchronization inside a transaction,
    /// references to objects not declared on this builder, `Spawn` of
    /// an auto-start thread, more than [`crate::trace::MAX_THREADS`]
    /// threads, more than [`crate::MAX_VARS`] shared variables, or a
    /// thread writing more than [`crate::MAX_LOCALS`] distinct locals.
    pub fn build(self) -> Result<Program, BuildError> {
        if self.threads.is_empty() {
            return Err(BuildError::NoThreads);
        }
        if self.threads.len() > MAX_THREADS {
            return Err(BuildError::TooManyThreads {
                threads: self.threads.len(),
            });
        }
        if self.var_names.len() > MAX_VARS {
            return Err(BuildError::TooManyVars {
                vars: self.var_names.len(),
            });
        }
        let auto_flags: Vec<bool> = self.threads.iter().map(|(_, _, _, a)| *a).collect();
        for (id, _, body, _) in &self.threads {
            self.validate_body(*id, body, &auto_flags)?;
            check_tx(body, false).map_err(|e| match e {
                TxErr::Unbalanced => BuildError::UnbalancedTransaction { thread: *id },
                TxErr::Sync => BuildError::SyncInsideTransaction { thread: *id },
            })?;
        }

        let threads = self
            .threads
            .into_iter()
            .map(|(_, name, body, auto)| {
                let mut code = Vec::new();
                compile_block(&body, &mut code);
                ThreadDef {
                    name,
                    body: Arc::new(body),
                    code: Arc::new(code),
                    auto_start: auto,
                }
            })
            .collect();

        Ok(Program {
            name: self.name,
            threads: Arc::new(threads),
            var_names: Arc::new(self.var_names),
            var_init: Arc::new(self.var_init),
            n_mutexes: self.n_mutexes,
            n_conds: self.n_conds,
            n_rws: self.n_rws,
            sem_init: Arc::new(self.sem_init),
            final_asserts: Arc::new(self.final_asserts),
        })
    }

    fn validate_body(
        &self,
        thread: ThreadId,
        body: &[Stmt],
        auto_flags: &[bool],
    ) -> Result<(), BuildError> {
        let mut err = None;
        // The distinct locals written so far: the thread's inline table
        // holds at most `MAX_LOCALS`.
        let mut locals = [""; MAX_LOCALS];
        let mut n_locals = 0;
        for stmt in body {
            stmt.visit(&mut |s| {
                if err.is_some() {
                    return;
                }
                for e in stmt_exprs(s) {
                    if e.mentions_shared() {
                        err = Some(BuildError::SharedExprInThreadBody { thread });
                        return;
                    }
                }
                if let Some(obj) = self.unknown_object(s) {
                    err = Some(BuildError::UnknownObject {
                        thread,
                        object: obj,
                    });
                    return;
                }
                for name in written_locals(s).into_iter().flatten() {
                    if locals[..n_locals].contains(&name) {
                        continue;
                    }
                    if n_locals == MAX_LOCALS {
                        err = Some(BuildError::TooManyLocals { thread });
                        return;
                    }
                    locals[n_locals] = name;
                    n_locals += 1;
                }
                if let Stmt::Spawn(target) = s {
                    match auto_flags.get(target.index()) {
                        Some(true) => {
                            err = Some(BuildError::SpawnOfAutoStartThread {
                                thread,
                                target: *target,
                            });
                        }
                        Some(false) => {}
                        None => {
                            err = Some(BuildError::UnknownObject {
                                thread,
                                object: target.to_string(),
                            });
                        }
                    }
                }
                if let Stmt::Join(target) = s {
                    if target.index() >= auto_flags.len() {
                        err = Some(BuildError::UnknownObject {
                            thread,
                            object: target.to_string(),
                        });
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(())
    }

    fn unknown_object(&self, s: &Stmt) -> Option<String> {
        let check_var = |v: &VarId| (v.index() >= self.var_names.len()).then(|| v.to_string());
        let check_mutex = |m: &MutexId| (m.index() >= self.n_mutexes).then(|| m.to_string());
        let check_cond = |c: &CondId| (c.index() >= self.n_conds).then(|| c.to_string());
        let check_rw = |r: &RwId| (r.index() >= self.n_rws).then(|| r.to_string());
        let check_sem = |s: &SemId| (s.index() >= self.sem_init.len()).then(|| s.to_string());
        match s {
            Stmt::Read { var, .. }
            | Stmt::Write { var, .. }
            | Stmt::Rmw { var, .. }
            | Stmt::Cas { var, .. } => check_var(var),
            Stmt::Lock(m) | Stmt::Unlock(m) => check_mutex(m),
            Stmt::TryLock { mutex, .. } => check_mutex(mutex),
            Stmt::RwRead(r) | Stmt::RwWrite(r) | Stmt::RwUnlock(r) => check_rw(r),
            Stmt::Wait { cond, mutex } => check_cond(cond).or_else(|| check_mutex(mutex)),
            Stmt::Signal(c) | Stmt::Broadcast(c) => check_cond(c),
            Stmt::SemAcquire(s) | Stmt::SemRelease(s) => check_sem(s),
            _ => None,
        }
    }
}

/// The locals one statement writes (non-recursive, like
/// [`stmt_exprs`]).
fn written_locals(s: &Stmt) -> [Option<&'static str>; 2] {
    match s {
        Stmt::Read { into, .. } | Stmt::TryLock { into, .. } => [Some(into), None],
        Stmt::LocalSet { name, .. } => [Some(name), None],
        Stmt::Rmw { into, .. } => [*into, None],
        Stmt::Cas {
            into,
            observed_into,
            ..
        } => [Some(into), *observed_into],
        _ => [None, None],
    }
}

/// Collects the expressions embedded in one statement (non-recursive; the
/// caller walks nested blocks via [`Stmt::visit`]).
fn stmt_exprs(s: &Stmt) -> Vec<&Expr> {
    match s {
        Stmt::Write { value, .. } => vec![value],
        Stmt::Rmw { operand, .. } => vec![operand],
        Stmt::Cas { expected, new, .. } => vec![expected, new],
        Stmt::LocalSet { value, .. } => vec![value],
        Stmt::If { cond, .. } | Stmt::While { cond, .. } | Stmt::Assert { cond, .. } => {
            vec![cond]
        }
        _ => Vec::new(),
    }
}

enum TxErr {
    Unbalanced,
    Sync,
}

/// Validates transaction bracketing: within every block, `TxBegin` and
/// `TxCommit` must pair up without nesting, and inside a transaction no
/// blocking synchronization may appear (nested control flow is allowed as
/// long as it is transaction-free and synchronization-free).
fn check_tx(block: &[Stmt], in_tx: bool) -> Result<(), TxErr> {
    let mut depth = usize::from(in_tx);
    for s in block {
        match s {
            Stmt::TxBegin => {
                if depth > 0 {
                    return Err(TxErr::Unbalanced);
                }
                depth = 1;
            }
            Stmt::TxCommit => {
                if depth == 0 {
                    return Err(TxErr::Unbalanced);
                }
                depth = 0;
            }
            Stmt::TxRetry if depth == 0 => {
                return Err(TxErr::Unbalanced);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                check_tx(then_branch, depth > 0)?;
                check_tx(else_branch, depth > 0)?;
            }
            Stmt::While { body, .. } => check_tx(body, depth > 0)?,
            Stmt::Lock(_)
            | Stmt::Unlock(_)
            | Stmt::TryLock { .. }
            | Stmt::RwRead(_)
            | Stmt::RwWrite(_)
            | Stmt::RwUnlock(_)
            | Stmt::Wait { .. }
            | Stmt::Signal(_)
            | Stmt::Broadcast(_)
            | Stmt::SemAcquire(_)
            | Stmt::SemRelease(_)
            | Stmt::Spawn(_)
            | Stmt::Join(_)
                if depth > 0 =>
            {
                return Err(TxErr::Sync);
            }
            _ => {}
        }
    }
    // A nested block may not leave a transaction open across its end, and
    // must not have closed its caller's transaction.
    if depth != usize::from(in_tx) {
        return Err(TxErr::Unbalanced);
    }
    Ok(())
}

/// Compiles a statement tree into flat instructions with explicit jumps.
pub(crate) fn compile_block(stmts: &[Stmt], out: &mut Vec<Instr>) {
    for s in stmts {
        match s {
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let jz = out.len();
                out.push(Instr::JumpIfZero(cond.clone(), usize::MAX));
                compile_block(then_branch, out);
                if else_branch.is_empty() {
                    let end = out.len();
                    patch(out, jz, end);
                } else {
                    let jmp = out.len();
                    out.push(Instr::Jump(usize::MAX));
                    let else_start = out.len();
                    patch(out, jz, else_start);
                    compile_block(else_branch, out);
                    let end = out.len();
                    patch(out, jmp, end);
                }
            }
            Stmt::While { cond, body } => {
                let top = out.len();
                let jz = out.len();
                out.push(Instr::JumpIfZero(cond.clone(), usize::MAX));
                compile_block(body, out);
                out.push(Instr::Jump(top));
                let end = out.len();
                patch(out, jz, end);
            }
            Stmt::LocalSet { name, value } => out.push(Instr::LocalSet {
                name,
                value: value.clone(),
            }),
            other => out.push(Instr::Op(other.clone())),
        }
    }
}

fn patch(out: &mut [Instr], at: usize, target: usize) {
    match &mut out[at] {
        Instr::Jump(t) | Instr::JumpIfZero(_, t) => *t = target,
        _ => unreachable!("patch target is always a jump"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rejects_empty_program() {
        assert_eq!(
            ProgramBuilder::new("e").build().unwrap_err(),
            BuildError::NoThreads
        );
    }

    /// A builder with `threads` one-write threads over `vars` variables.
    fn wide(threads: usize, vars: usize) -> ProgramBuilder {
        let mut b = ProgramBuilder::new("wide");
        let ids: Vec<VarId> = (0..vars).map(|_| b.var("v", 0)).collect();
        for i in 0..threads {
            b.thread("t", vec![Stmt::write(ids[i % vars], 1)]);
        }
        b
    }

    #[test]
    fn build_accepts_exactly_the_thread_and_variable_limits() {
        let p = wide(MAX_THREADS, MAX_VARS).build().expect("at the limits");
        assert_eq!((p.n_threads(), p.n_vars()), (8, 64));
    }

    #[test]
    fn build_rejects_a_ninth_thread() {
        assert_eq!(
            wide(MAX_THREADS + 1, 1).build().unwrap_err(),
            BuildError::TooManyThreads { threads: 9 }
        );
    }

    #[test]
    fn build_rejects_a_sixty_fifth_variable() {
        assert_eq!(
            wide(1, MAX_VARS + 1).build().unwrap_err(),
            BuildError::TooManyVars { vars: 65 }
        );
    }

    /// A one-thread builder whose thread writes `n` distinct locals,
    /// one each through every kind of local-writing statement, half of
    /// them inside a nested block.
    fn writes_locals(n: usize) -> ProgramBuilder {
        const NAMES: [&str; MAX_LOCALS + 1] = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
        let mut b = ProgramBuilder::new("locals");
        let v = b.var("v", 0);
        let m = b.mutex();
        let body: Vec<Stmt> = NAMES[..n]
            .iter()
            .enumerate()
            .map(|(i, &name)| match i % 5 {
                0 => Stmt::read(v, name),
                1 => Stmt::local(name, 1),
                2 => Stmt::exchange(v, 1, name),
                3 => Stmt::cas(v, 0, 1, name),
                _ => Stmt::TryLock {
                    mutex: m,
                    into: name,
                },
            })
            .collect();
        let (flat, nested) = body.split_at(n / 2);
        let mut body = flat.to_vec();
        body.push(Stmt::if_else(Expr::lit(1), nested.to_vec(), vec![]));
        // Rewriting a local already counted adds no entry.
        body.push(Stmt::local("a", 2));
        b.thread("t", body);
        b
    }

    #[test]
    fn build_accepts_exactly_the_locals_limit() {
        let p = writes_locals(MAX_LOCALS).build().expect("at the limit");
        let mut e = crate::Executor::new(&p);
        assert_eq!(e.run_sequential(100), crate::Outcome::Ok);
    }

    #[test]
    fn build_rejects_one_local_over_the_limit() {
        assert_eq!(
            writes_locals(MAX_LOCALS + 1).build().unwrap_err(),
            BuildError::TooManyLocals {
                thread: ThreadId::from_index(0)
            }
        );
    }

    #[test]
    fn build_rejects_shared_expr_in_body() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread("t", vec![Stmt::write(v, Expr::shared(v))]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SharedExprInThreadBody { .. }
        ));
    }

    #[test]
    fn build_rejects_shared_expr_in_nested_body() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread(
            "t",
            vec![Stmt::if_then(
                Expr::lit(1),
                vec![Stmt::assert(Expr::shared(v).eq(Expr::lit(0)), "x")],
            )],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SharedExprInThreadBody { .. }
        ));
    }

    #[test]
    fn build_allows_shared_in_final_assert() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread("t", vec![Stmt::write(v, 1)]);
        b.final_assert(Expr::shared(v).eq(Expr::lit(1)), "v set");
        assert!(b.build().is_ok());
    }

    #[test]
    fn build_rejects_unknown_objects() {
        let mut b = ProgramBuilder::new("p");
        b.thread("t", vec![Stmt::read(VarId::from_index(9), "x")]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnknownObject { .. }
        ));

        let mut b = ProgramBuilder::new("p");
        b.thread("t", vec![Stmt::lock(MutexId::from_index(0))]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnknownObject { .. }
        ));
    }

    #[test]
    fn build_rejects_spawn_of_auto_thread() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        let t1 = b.thread("a", vec![Stmt::write(v, 1)]);
        b.thread("b", vec![Stmt::Spawn(t1)]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SpawnOfAutoStartThread { .. }
        ));
    }

    #[test]
    fn build_accepts_spawn_of_deferred_thread() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        let child = b.thread_deferred("child", vec![Stmt::write(v, 1)]);
        b.thread("parent", vec![Stmt::Spawn(child), Stmt::Join(child)]);
        let p = b.build().unwrap();
        assert!(!p.threads()[child.index()].auto_start());
    }

    #[test]
    fn tx_validation() {
        // Unbalanced: commit without begin.
        let mut b = ProgramBuilder::new("p");
        b.thread("t", vec![Stmt::TxCommit]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnbalancedTransaction { .. }
        ));

        // Unbalanced: begin never committed.
        let mut b = ProgramBuilder::new("p");
        b.thread("t", vec![Stmt::TxBegin]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnbalancedTransaction { .. }
        ));

        // Nested.
        let mut b = ProgramBuilder::new("p");
        b.thread(
            "t",
            vec![Stmt::TxBegin, Stmt::TxBegin, Stmt::TxCommit, Stmt::TxCommit],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnbalancedTransaction { .. }
        ));

        // Lock inside tx.
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex();
        b.thread("t", vec![Stmt::TxBegin, Stmt::lock(m), Stmt::TxCommit]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SyncInsideTransaction { .. }
        ));

        // Lock inside an If inside tx.
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex();
        b.thread(
            "t",
            vec![
                Stmt::TxBegin,
                Stmt::if_then(Expr::lit(1), vec![Stmt::lock(m)]),
                Stmt::TxCommit,
            ],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SyncInsideTransaction { .. }
        ));

        // A whole tx inside an If is fine.
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread(
            "t",
            vec![Stmt::if_then(
                Expr::lit(1),
                vec![Stmt::TxBegin, Stmt::write(v, 1), Stmt::TxCommit],
            )],
        );
        assert!(b.build().is_ok());
    }

    #[test]
    fn compile_if_else_layout() {
        let v = VarId::from_index(0);
        let stmts = vec![Stmt::if_else(
            Expr::local("c"),
            vec![Stmt::write(v, 1)],
            vec![Stmt::write(v, 2)],
        )];
        let mut code = Vec::new();
        compile_block(&stmts, &mut code);
        // JumpIfZero -> else; write 1; Jump -> end; write 2
        assert_eq!(code.len(), 4);
        assert!(matches!(code[0], Instr::JumpIfZero(_, 3)));
        assert!(matches!(code[2], Instr::Jump(4)));
    }

    #[test]
    fn compile_while_layout() {
        let v = VarId::from_index(0);
        let stmts = vec![Stmt::while_loop(Expr::local("c"), vec![Stmt::write(v, 1)])];
        let mut code = Vec::new();
        compile_block(&stmts, &mut code);
        // 0: JumpIfZero -> 3; 1: write; 2: Jump -> 0
        assert_eq!(code.len(), 3);
        assert!(matches!(code[0], Instr::JumpIfZero(_, 3)));
        assert!(matches!(code[2], Instr::Jump(0)));
    }

    #[test]
    fn static_visible_ops_counts_ops_only() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread(
            "t",
            vec![
                Stmt::local("i", 0),
                Stmt::while_loop(
                    Expr::local("i").lt(Expr::lit(3)),
                    vec![
                        Stmt::read(v, "x"),
                        Stmt::local("i", Expr::local("i") + Expr::lit(1)),
                    ],
                ),
            ],
        );
        let p = b.build().unwrap();
        assert_eq!(p.static_visible_ops(), 1);
    }

    #[test]
    fn thread_lookup_by_name() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread("alpha", vec![Stmt::write(v, 1)]);
        b.thread("beta", vec![Stmt::write(v, 2)]);
        let p = b.build().unwrap();
        assert_eq!(p.thread_by_name("beta"), Some(ThreadId::from_index(1)));
        assert_eq!(p.thread_by_name("gamma"), None);
        assert_eq!(p.var_name(v), "v");
        assert_eq!(p.var_init(), &[0]);
    }
}
