//! The stack machine: the Controller's execution engine.
//!
//! "The execution engine of the Controller is a stack machine that operates
//! by executing the EUs of the procedure currently on top of the stack. In
//! addition to executing its own code, a procedure X, through its EUs, can
//! call procedures that were matched to its declared dependencies, which
//! results in the called procedure being pushed onto the stack, or it can
//! signal that it has completed its operation, resulting in the procedure
//! being popped from the stack" (§V-B).

use crate::intent::{ImNode, IntentModel};
use crate::procedure::{Instr, Operand};
use crate::repository::ProcedureRepository;
use crate::{ControllerError, Result};
use std::collections::BTreeMap;

/// Response of a broker-port invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PortResponse {
    /// Whether the call succeeded.
    pub ok: bool,
    /// Named result values.
    pub values: BTreeMap<String, String>,
    /// Failure reason when `!ok`.
    pub reason: Option<String>,
    /// Virtual-time cost of the call, in microseconds (virtual-time
    /// experiments accumulate it; wall-clock experiments ignore it).
    pub cost_us: u64,
}

impl PortResponse {
    /// A zero-cost success with no values.
    pub fn ok() -> Self {
        PortResponse {
            ok: true,
            ..Default::default()
        }
    }

    /// A failure with a reason.
    pub fn failed(reason: impl Into<String>, cost_us: u64) -> Self {
        PortResponse {
            ok: false,
            reason: Some(reason.into()),
            cost_us,
            ..Default::default()
        }
    }
}

/// The Controller's window onto the Broker layer: "the execution of an EU
/// involves making calls to the underlying Broker layer through a set of
/// exposed APIs" (§V-B).
pub trait BrokerPort {
    /// Invokes `op` on broker API `api`.
    fn invoke(&mut self, api: &str, op: &str, args: &[(String, String)]) -> PortResponse;
}

impl<F> BrokerPort for F
where
    F: FnMut(&str, &str, &[(String, String)]) -> PortResponse,
{
    fn invoke(&mut self, api: &str, op: &str, args: &[(String, String)]) -> PortResponse {
        self(api, op, args)
    }
}

/// An event raised by an EU during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaisedEvent {
    /// Event topic.
    pub topic: String,
    /// Resolved payload.
    pub payload: Vec<(String, String)>,
}

/// A message sent by an EU during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentMessage {
    /// Destination component.
    pub to: String,
    /// Topic.
    pub topic: String,
    /// Resolved payload.
    pub payload: Vec<(String, String)>,
}

/// Statistics and side-effects of one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecOutcome {
    /// Instructions executed.
    pub steps: u64,
    /// Broker calls issued (including remote calls).
    pub broker_calls: u64,
    /// Events raised via `EmitEvent`.
    pub events: Vec<RaisedEvent>,
    /// Messages sent via `SendMessage`.
    pub messages: Vec<SentMessage>,
    /// Accumulated virtual-time cost (µs) of broker calls.
    pub virtual_cost_us: u64,
    /// Broker failures absorbed by a procedure `on_error` handler instead
    /// of aborting the execution.
    pub recovered_failures: u64,
}

/// Instructions one execution may run; the bound is checked before each
/// instruction and before the implicit completion at a program's end.
const MAX_STEPS: u64 = 100_000;

/// Deepest procedure stack one execution may build. It guards model input:
/// a platform model's `maxDepth` can generate intent models deeper than
/// this.
const MAX_DEPTH: usize = 64;

/// The stack machine; it keeps no state between executions.
#[derive(Debug, Clone, Default)]
pub struct StackMachine;

struct Frame<'a> {
    node: &'a ImNode,
    /// Flattened program of the procedure's EUs, owned so `IfVar` splicing
    /// needs no lifetime games.
    program: Vec<Instr>,
    pc: usize,
    locals: BTreeMap<String, String>,
    /// The procedure's compensation EU, if any.
    on_error: Option<&'a crate::procedure::ExecutionUnit>,
    /// Set once the frame has switched to its `on_error` program — a
    /// failure inside the handler unwinds further instead of re-entering.
    in_error: bool,
}

impl StackMachine {
    /// Creates a machine.
    pub fn new() -> Self {
        StackMachine
    }

    /// Executes an intent model: pushes the root procedure and runs until
    /// the stack empties. `cmd_args` are the arguments of the command that
    /// requested the operation (readable through [`Operand::Arg`]).
    pub fn execute(
        &self,
        im: &IntentModel,
        repo: &ProcedureRepository,
        cmd_args: &[(String, String)],
        port: &mut dyn BrokerPort,
    ) -> Result<ExecOutcome> {
        let mut stack = vec![Self::frame(&im.root, repo)?];
        let mut outcome = ExecOutcome::default();
        while let Some(top) = stack.last_mut() {
            if outcome.steps >= MAX_STEPS {
                return Err(ControllerError::ExecutionLimit(format!(
                    "{MAX_STEPS} steps"
                )));
            }
            let Some(instr) = top.program.get(top.pc).cloned() else {
                // Falling off the end of the program implies completion.
                stack.pop();
                continue;
            };
            top.pc += 1;
            outcome.steps += 1;
            let instr = &instr;

            // Resolve an operand against the frame and command args.
            let resolve = |o: &Operand, locals: &BTreeMap<String, String>| -> String {
                match o {
                    Operand::Lit(s) => s.clone(),
                    Operand::Var(v) => locals.get(v).cloned().unwrap_or_default(),
                    Operand::Arg(a) => cmd_args
                        .iter()
                        .find(|(k, _)| k == a)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default(),
                }
            };

            match instr {
                Instr::SetVar { name, value } => {
                    let v = resolve(value, &top.locals);
                    top.locals.insert(name.clone(), v);
                }
                Instr::Free(name) => {
                    top.locals.remove(name);
                }
                Instr::BrokerCall { api, op, args }
                | Instr::RemoteCall {
                    node: api,
                    op,
                    args,
                } => {
                    let is_remote = matches!(instr, Instr::RemoteCall { .. });
                    let resolved: Vec<(String, String)> = args
                        .iter()
                        .map(|(k, v)| (k.clone(), resolve(v, &top.locals)))
                        .collect();
                    let (api_name, op_name) = if is_remote {
                        ("remote".to_string(), format!("{api}:{op}"))
                    } else {
                        (api.clone(), op.clone())
                    };
                    let resp = port.invoke(&api_name, &op_name, &resolved);
                    outcome.broker_calls += 1;
                    outcome.virtual_cost_us += resp.cost_us;
                    if resp.ok {
                        for (k, v) in resp.values {
                            top.locals.insert(format!("result.{k}"), v);
                        }
                    } else {
                        let failed_proc = top.node.proc.to_string();
                        let reason = resp.reason.unwrap_or_else(|| "unspecified".into());
                        // Graceful degradation: unwind to the nearest frame
                        // (from the top) whose procedure declares an
                        // `on_error` handler that is not itself already
                        // handling a failure; abort only when none exists.
                        let Some(h) = stack
                            .iter()
                            .rposition(|f| f.on_error.is_some() && !f.in_error)
                        else {
                            return Err(ControllerError::BrokerFailure {
                                proc: failed_proc,
                                api: api_name,
                                op: op_name,
                                reason,
                            });
                        };
                        stack.truncate(h + 1);
                        outcome.recovered_failures += 1;
                        let handler = &mut stack[h];
                        if let Some(eu) = handler.on_error {
                            handler.program = eu.instructions.clone();
                        }
                        handler.pc = 0;
                        handler.in_error = true;
                        handler.locals.insert("error.proc".into(), failed_proc);
                        handler.locals.insert("error.api".into(), api_name);
                        handler.locals.insert("error.op".into(), op_name);
                        handler.locals.insert("error.reason".into(), reason);
                    }
                }
                Instr::EmitEvent { topic, payload } => {
                    outcome.events.push(RaisedEvent {
                        topic: topic.clone(),
                        payload: payload
                            .iter()
                            .map(|(k, v)| (k.clone(), resolve(v, &top.locals)))
                            .collect(),
                    });
                }
                Instr::SendMessage { to, topic, payload } => {
                    outcome.messages.push(SentMessage {
                        to: to.clone(),
                        topic: topic.clone(),
                        payload: payload
                            .iter()
                            .map(|(k, v)| (k.clone(), resolve(v, &top.locals)))
                            .collect(),
                    });
                }
                Instr::CallDep(idx) => {
                    let child = top.node.children.get(*idx).ok_or_else(|| {
                        ControllerError::InvalidIntentModel(format!(
                            "`{}` has no matched dependency at index {idx}",
                            top.node.proc
                        ))
                    })?;
                    if stack.len() >= MAX_DEPTH {
                        return Err(ControllerError::ExecutionLimit(format!(
                            "stack depth {MAX_DEPTH}"
                        )));
                    }
                    let frame = Self::frame(child, repo)?;
                    stack.push(frame);
                }
                Instr::IfVar {
                    var,
                    equals,
                    then,
                    otherwise,
                } => {
                    let taken = top.locals.get(var).map(String::as_str) == Some(equals.as_str());
                    let branch = if taken { then } else { otherwise };
                    // Splice the branch in just after the current pc.
                    let pc = top.pc;
                    for (i, ins) in branch.iter().enumerate() {
                        top.program.insert(pc + i, ins.clone());
                    }
                }
                Instr::Complete => {
                    stack.pop();
                }
            }
        }
        Ok(outcome)
    }

    fn frame<'a>(node: &'a ImNode, repo: &'a ProcedureRepository) -> Result<Frame<'a>> {
        let proc = repo.get_or_err(&node.proc)?;
        let program: Vec<Instr> = proc
            .eus
            .iter()
            .flat_map(|eu| eu.instructions.iter().cloned())
            .collect();
        Ok(Frame {
            node,
            program,
            pc: 0,
            locals: BTreeMap::new(),
            on_error: proc.on_error.as_ref(),
            in_error: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::Procedure;

    fn ok_port() -> impl BrokerPort {
        |_: &str, _: &str, _: &[(String, String)]| PortResponse::ok()
    }

    fn leaf(id: &str, instrs: Vec<Instr>) -> (ImNode, Procedure) {
        (
            ImNode {
                proc: id.into(),
                children: vec![],
            },
            Procedure::simple(id, "C", instrs),
        )
    }

    fn repo_of(procs: Vec<Procedure>) -> ProcedureRepository {
        let mut r = ProcedureRepository::new();
        for p in procs {
            r.add(p).unwrap();
        }
        r
    }

    #[test]
    fn locals_args_and_broker_calls() {
        let (node, proc) = leaf(
            "p",
            vec![
                Instr::SetVar {
                    name: "x".into(),
                    value: Operand::arg("who"),
                },
                Instr::BrokerCall {
                    api: "media".into(),
                    op: "open".into(),
                    args: vec![
                        ("peer".into(), Operand::var("x")),
                        ("q".into(), Operand::lit("hd")),
                    ],
                },
                Instr::SetVar {
                    name: "sid".into(),
                    value: Operand::var("result.session"),
                },
                Instr::Complete,
            ],
        );
        let repo = repo_of(vec![proc]);
        let calls = std::cell::RefCell::new(Vec::new());
        let mut port = |api: &str, op: &str, args: &[(String, String)]| {
            calls.borrow_mut().push(format!("{api}.{op}({:?})", args));
            let mut r = PortResponse::ok();
            r.values.insert("session".into(), "s42".into());
            r.cost_us = 10;
            r
        };
        let im = IntentModel { root: node };
        let out = StackMachine::new()
            .execute(&im, &repo, &[("who".into(), "bob".into())], &mut port)
            .unwrap();
        assert_eq!(out.broker_calls, 1);
        assert_eq!(out.virtual_cost_us, 10);
        assert_eq!(out.steps, 4);
        let c = calls.borrow();
        assert!(c[0].contains("peer"), "{c:?}");
        assert!(c[0].contains("bob"), "{c:?}");
    }

    #[test]
    fn dsc_based_call_pushes_child() {
        let parent = Procedure::simple(
            "parent",
            "C",
            vec![
                Instr::CallDep(0),
                Instr::EmitEvent {
                    topic: "done".into(),
                    payload: vec![],
                },
                Instr::Complete,
            ],
        )
        .with_dependency("D");
        let child = Procedure::simple(
            "child",
            "D",
            vec![
                Instr::BrokerCall {
                    api: "svc".into(),
                    op: "x".into(),
                    args: vec![],
                },
                Instr::Complete,
            ],
        );
        let repo = repo_of(vec![parent, child]);
        let im = IntentModel {
            root: ImNode {
                proc: "parent".into(),
                children: vec![ImNode {
                    proc: "child".into(),
                    children: vec![],
                }],
            },
        };
        let mut port = ok_port();
        let out = StackMachine::new()
            .execute(&im, &repo, &[], &mut port)
            .unwrap();
        assert_eq!(out.broker_calls, 1);
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].topic, "done");
    }

    #[test]
    fn broker_failure_names_the_procedure() {
        let (node, proc) = leaf(
            "fragile",
            vec![Instr::BrokerCall {
                api: "svc".into(),
                op: "x".into(),
                args: vec![],
            }],
        );
        let repo = repo_of(vec![proc]);
        let mut port = |_: &str, _: &str, _: &[(String, String)]| PortResponse::failed("down", 500);
        let e = StackMachine::new()
            .execute(&IntentModel { root: node }, &repo, &[], &mut port)
            .unwrap_err();
        match e {
            ControllerError::BrokerFailure { proc, reason, .. } => {
                assert_eq!(proc, "fragile");
                assert_eq!(reason, "down");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn on_error_handler_absorbs_broker_failures() {
        let (node, proc) = leaf(
            "resilient",
            vec![
                Instr::BrokerCall {
                    api: "svc".into(),
                    op: "x".into(),
                    args: vec![],
                },
                Instr::Complete,
            ],
        );
        let proc = proc.with_on_error(vec![
            Instr::EmitEvent {
                topic: "degraded".into(),
                payload: vec![
                    ("why".into(), Operand::var("error.reason")),
                    ("api".into(), Operand::var("error.api")),
                ],
            },
            Instr::Complete,
        ]);
        let repo = repo_of(vec![proc]);
        let mut port = |_: &str, _: &str, _: &[(String, String)]| PortResponse::failed("down", 500);
        let out = StackMachine::new()
            .execute(&IntentModel { root: node }, &repo, &[], &mut port)
            .unwrap();
        assert_eq!(out.recovered_failures, 1);
        assert_eq!(out.virtual_cost_us, 500);
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].topic, "degraded");
        assert_eq!(
            out.events[0].payload,
            vec![("why".into(), "down".into()), ("api".into(), "svc".into())]
        );
    }

    #[test]
    fn failures_unwind_to_the_nearest_ancestor_handler() {
        // parent (has on_error) -> child (no handler, fails).
        let parent = Procedure::simple(
            "parent",
            "C",
            vec![
                Instr::CallDep(0),
                Instr::EmitEvent {
                    topic: "never".into(),
                    payload: vec![],
                },
            ],
        )
        .with_dependency("D")
        .with_on_error(vec![
            Instr::EmitEvent {
                topic: "compensated".into(),
                payload: vec![("proc".into(), Operand::var("error.proc"))],
            },
            Instr::Complete,
        ]);
        let child = Procedure::simple(
            "child",
            "D",
            vec![Instr::BrokerCall {
                api: "svc".into(),
                op: "x".into(),
                args: vec![],
            }],
        );
        let repo = repo_of(vec![parent, child]);
        let im = IntentModel {
            root: ImNode {
                proc: "parent".into(),
                children: vec![ImNode {
                    proc: "child".into(),
                    children: vec![],
                }],
            },
        };
        let mut port = |_: &str, _: &str, _: &[(String, String)]| PortResponse::failed("boom", 0);
        let out = StackMachine::new()
            .execute(&im, &repo, &[], &mut port)
            .unwrap();
        assert_eq!(out.recovered_failures, 1);
        // The child frame was discarded: the parent's normal continuation
        // ("never") is replaced by its compensation path.
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].topic, "compensated");
        assert_eq!(out.events[0].payload, vec![("proc".into(), "child".into())]);
    }

    #[test]
    fn failure_inside_a_handler_propagates() {
        let (node, proc) = leaf(
            "p",
            vec![Instr::BrokerCall {
                api: "svc".into(),
                op: "x".into(),
                args: vec![],
            }],
        );
        let proc = proc.with_on_error(vec![Instr::BrokerCall {
            api: "alt".into(),
            op: "y".into(),
            args: vec![],
        }]);
        let repo = repo_of(vec![proc]);
        let mut port = |_: &str, _: &str, _: &[(String, String)]| PortResponse::failed("down", 0);
        let e = StackMachine::new()
            .execute(&IntentModel { root: node }, &repo, &[], &mut port)
            .unwrap_err();
        match e {
            ControllerError::BrokerFailure { api, .. } => assert_eq!(api, "alt"),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn conditionals_branch_on_locals() {
        let (node, proc) = leaf(
            "p",
            vec![
                Instr::SetVar {
                    name: "mode".into(),
                    value: Operand::arg("mode"),
                },
                Instr::IfVar {
                    var: "mode".into(),
                    equals: "hd".into(),
                    then: vec![Instr::EmitEvent {
                        topic: "hd".into(),
                        payload: vec![],
                    }],
                    otherwise: vec![Instr::EmitEvent {
                        topic: "sd".into(),
                        payload: vec![],
                    }],
                },
                Instr::Complete,
            ],
        );
        let repo = repo_of(vec![proc]);
        let im = IntentModel { root: node };
        let mut port = ok_port();
        let out = StackMachine::new()
            .execute(&im, &repo, &[("mode".into(), "hd".into())], &mut port)
            .unwrap();
        assert_eq!(out.events[0].topic, "hd");
        let mut port = ok_port();
        let out = StackMachine::new()
            .execute(&im, &repo, &[], &mut port)
            .unwrap();
        assert_eq!(out.events[0].topic, "sd");
    }

    #[test]
    fn implicit_completion_and_free() {
        // No explicit Complete: falling off the program pops the frame.
        let (node, proc) = leaf(
            "p",
            vec![
                Instr::SetVar {
                    name: "x".into(),
                    value: Operand::lit("1"),
                },
                Instr::Free("x".into()),
            ],
        );
        let repo = repo_of(vec![proc]);
        let mut port = ok_port();
        let out = StackMachine::new()
            .execute(&IntentModel { root: node }, &repo, &[], &mut port)
            .unwrap();
        assert_eq!(out.steps, 2);
    }

    #[test]
    fn step_limit_enforced() {
        // The bound is checked before each instruction and before the
        // implicit completion: 99 999 instructions complete, 100 000 fail.
        let run = |n: usize| {
            let (node, proc) = leaf("p", vec![Instr::Free("x".into()); n]);
            let repo = repo_of(vec![proc]);
            let mut port = ok_port();
            StackMachine::new().execute(&IntentModel { root: node }, &repo, &[], &mut port)
        };
        assert_eq!(run(99_999).unwrap().steps, 99_999);
        let e = run(100_000).unwrap_err();
        assert_eq!(e.to_string(), "execution limit exceeded: 100000 steps");
    }

    #[test]
    fn depth_limit_enforced() {
        // One procedure calling its dependency over a 65-node chain: the
        // 64th frame's call would push a 65th.
        let p = Procedure::simple("p", "C", vec![Instr::CallDep(0)]).with_dependency("C");
        let repo = repo_of(vec![p]);
        let mut root = ImNode {
            proc: "p".into(),
            children: vec![],
        };
        for _ in 1..65 {
            root = ImNode {
                proc: "p".into(),
                children: vec![root],
            };
        }
        let mut port = ok_port();
        let e = StackMachine::new()
            .execute(&IntentModel { root }, &repo, &[], &mut port)
            .unwrap_err();
        assert_eq!(e.to_string(), "execution limit exceeded: stack depth 64");
    }

    #[test]
    fn nested_handlers_failing_handler_unwinds_to_ancestor_handler() {
        // parent (has on_error) -> child (has on_error whose own program
        // fails): the child handler's failure must unwind to the parent's
        // handler, not re-enter the child's.
        let parent = Procedure::simple(
            "parent",
            "C",
            vec![
                Instr::CallDep(0),
                Instr::EmitEvent {
                    topic: "never".into(),
                    payload: vec![],
                },
            ],
        )
        .with_dependency("D")
        .with_on_error(vec![
            Instr::EmitEvent {
                topic: "outer-compensated".into(),
                payload: vec![("proc".into(), Operand::var("error.proc"))],
            },
            Instr::Complete,
        ]);
        let child = Procedure::simple(
            "child",
            "D",
            vec![Instr::BrokerCall {
                api: "svc".into(),
                op: "first".into(),
                args: vec![],
            }],
        )
        .with_on_error(vec![
            Instr::EmitEvent {
                topic: "inner-compensating".into(),
                payload: vec![],
            },
            Instr::BrokerCall {
                api: "svc".into(),
                op: "undo".into(),
                args: vec![],
            },
            Instr::Complete,
        ]);
        let repo = repo_of(vec![parent, child]);
        let im = IntentModel {
            root: ImNode {
                proc: "parent".into(),
                children: vec![ImNode {
                    proc: "child".into(),
                    children: vec![],
                }],
            },
        };
        // Everything fails: the child call, then the child handler's undo.
        let mut port = |_: &str, op: &str, _: &[(String, String)]| {
            PortResponse::failed(format!("{op} down"), 10)
        };
        let out = StackMachine::new()
            .execute(&im, &repo, &[], &mut port)
            .unwrap();
        // Both failures were absorbed: first by the child's handler, then
        // by the parent's.
        assert_eq!(out.recovered_failures, 2);
        let topics: Vec<&str> = out.events.iter().map(|e| e.topic.as_str()).collect();
        assert_eq!(topics, vec!["inner-compensating", "outer-compensated"]);
        // The parent handler saw the *child* as the failing procedure.
        assert_eq!(out.events[1].payload, vec![("proc".into(), "child".into())]);
        assert_eq!(out.virtual_cost_us, 20);
    }

    #[test]
    fn messages_and_remote_calls() {
        let (node, proc) = leaf(
            "p",
            vec![
                Instr::SendMessage {
                    to: "ui".into(),
                    topic: "progress".into(),
                    payload: vec![("pct".into(), Operand::lit("50"))],
                },
                Instr::RemoteCall {
                    node: "provider".into(),
                    op: "collect".into(),
                    args: vec![],
                },
                Instr::Complete,
            ],
        );
        let repo = repo_of(vec![proc]);
        let seen = std::cell::RefCell::new(Vec::new());
        let mut port = |api: &str, op: &str, _args: &[(String, String)]| {
            seen.borrow_mut().push(format!("{api}.{op}"));
            PortResponse::ok()
        };
        let im = IntentModel { root: node };
        let out = StackMachine::new()
            .execute(&im, &repo, &[], &mut port)
            .unwrap();
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].to, "ui");
        assert_eq!(
            seen.borrow().as_slice(),
            &["remote.provider:collect".to_string()]
        );
    }

    #[test]
    fn missing_child_is_invalid_im() {
        let parent = Procedure::simple("parent", "C", vec![Instr::CallDep(0)]).with_dependency("D");
        let repo = repo_of(vec![parent]);
        let im = IntentModel {
            root: ImNode {
                proc: "parent".into(),
                children: vec![],
            },
        };
        let mut port = ok_port();
        let e = StackMachine::new()
            .execute(&im, &repo, &[], &mut port)
            .unwrap_err();
        assert!(matches!(e, ControllerError::InvalidIntentModel(_)));
    }
}
