(** Bytecode executor for {!Compile} programs — the engine behind
    {!Interp}'s public API.

    Parity contract: byte-identical {!Trace.event} streams, outcomes,
    step counts and error messages with the tree-walking evaluator kept
    as a test oracle (test/oracle), asserted by [test/test_vm.ml] on
    fuzzed programs and on the synthesis pipeline's ranked output.  Step charging goes through {!Rt.tick_n} at
    exactly the tree-walker's three tick sites, so
    {!Absint.Stepbound} budget hints stay bit-for-bit accurate. *)

val exec_program : Rt.ctx -> Value.scope -> Ast.program -> unit
(** Execute a parsed file into [scope] (module mode). *)

val call_value : Rt.ctx -> Value.t -> Value.t list -> Ast.pos -> Value.t
(** Call any callable value with already-evaluated arguments. *)

val call_method : Rt.ctx -> Value.t -> string -> Value.t list -> Ast.pos -> Value.t
(** Invoke [obj.name(args)] with already-evaluated arguments. *)

val call_callable : Rt.ctx -> Value.t -> Value.t list -> Value.t
(** [call_value] at the synthetic [<call>] position used by the driver
    to invoke candidate detector functions. *)
