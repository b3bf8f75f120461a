(** Lowering of {!Ast} to flat bytecode for {!Vm}.

    The compiled form is a jump-threaded instruction array per code
    unit (module body, function body, default expression, or the
    sub-blocks of a [try] statement).  Identifiers are resolved to
    frame slot indices at compile time (module-level names stay
    dynamic, matching the tree-walker's scope chain); regex literals in
    [re.xxx("pat", s)] calls are pre-compiled; step charging is batched
    into [I_tick k] instructions whose placement reproduces the
    tree-walker's three tick sites bit-for-bit (see {!Rt.tick_n}).

    Effect-order parity is the contract, so the emitter mirrors the
    tree-walker's (OCaml-determined) evaluation order exactly — notably
    slice bounds evaluate and validate upper-before-lower and dict
    literals evaluate value-before-key, because that is what the
    tree-walker's right-to-left argument evaluation does.

    Compiled units are cached per domain, keyed on the *physical
    identity* of the AST node ({!Repolib.Repo.parse_each} shares parsed
    ASTs across all runs of a candidate, so the ~240 runs per candidate
    compile once per domain). *)

(* Specialized receivers for hot methods: checked against the runtime
   receiver/argument shapes; any mismatch falls back to the generic
   dispatch so error behavior is byte-identical. *)
type mspec =
  | M_generic
  | M_strip | M_lstrip | M_rstrip
  | M_upper | M_lower
  | M_isdigit | M_isalpha | M_isalnum
  | M_split0 | M_split1
  | M_replace
  | M_startswith | M_endswith
  | M_join
  | M_find
  | M_append

type instr =
  | I_tick of int  (** charge k interpreter steps ({!Rt.tick_n}) *)
  | I_const of Value.t
  | I_pop
  | I_jump of int
  | I_and of int  (** peek: falsy keeps value and jumps, truthy pops *)
  | I_or of int   (** peek: truthy keeps value and jumps, falsy pops *)
  | I_branch of Trace.event * Trace.event * int
      (** pop, emit the taken/not-taken event, jump when false; both
          events are preallocated at compile time so emission is a cons *)
  | I_not
  | I_neg
  | I_binop of Ast.binop
  | I_load of int * string      (** slot, name (module fallback on unset) *)
  | I_load_name of string       (** module mode: dynamic scope chain *)
  | I_store of int * string * Ast.pos
      (** maybe-global store: runtime [global] check, Assign event *)
  | I_store_local of int * string * Ast.pos
      (** definitely-local store with Assign event *)
  | I_store_direct of int       (** binder store: no event, no global check *)
  | I_store_name of string * Ast.pos   (** module mode, Assign event *)
  | I_store_name_direct of string      (** module mode binder store *)
  | I_store_attr of string * Ast.pos   (** pops obj then value *)
  | I_store_index                      (** pops index, container, value *)
  | I_unpack of int   (** pop sequence, push n elements (first on top) *)
  | I_attr of string
  | I_index           (** specialized str[int] inline, generic fallback *)
  | I_slice_check     (** validate top is int/None (slice bound) *)
  | I_slice of bool * bool  (** has_lo, has_hi; specialized str inline *)
  | I_build_list of int
  | I_build_tuple of int
  | I_build_dict of int     (** operands pushed value-before-key per pair *)
  | I_call of int * Ast.pos
  | I_call1 of Ast.pos      (** 1-arg call: inline len/int/str fast paths *)
  | I_method of string * int * Ast.pos * mspec
  | I_method_re of string * Regexlite.t * Ast.pos
      (** [re.name(lit, s)] with a pre-compiled pattern; generic fallback *)
  | I_return of Trace.site  (** pop, emit Return, raise Return_signal *)
  | I_raise_bare
  | I_raise
  | I_fail of string * string  (** raise Runtime_error (kind, msg) *)
  | I_for_setup       (** pop iterable, push item list onto frame iters *)
  | I_for_next of int (** next item or pop iter and jump *)
  | I_for_pop of int  (** break target: pop iter, jump *)
  | I_break
  | I_continue
  | I_global of string list
  | I_func of Ast.func
  | I_class of Ast.cls
  | I_try of try_code

and code = {
  c_instrs : instr array;
  c_brk : int array;
      (** per-pc jump target for a {!Rt.Break_signal} unwinding to this
          pc, [-1] to propagate (loop lives in an enclosing unit) *)
  c_cont : int array;  (** same for {!Rt.Continue_signal} *)
  c_stack : int;  (** max operand-stack depth, nested try units included *)
}

and hmatch = H_any | H_exact of string

and hbind = B_none | B_slot of int | B_name of string

and try_code = {
  t_body : code;
  t_handlers : (hmatch * hbind * code) list;
  t_finally : code option;
}

type cfunc = {
  cf_fn : Ast.func;
  cf_code : code;
  cf_nslots : int;
  cf_param_slots : int array;  (** slot of each param, in order *)
  cf_defaults : (string * code) list;  (** param name -> default expr code *)
  cf_stack : int;  (** max stack need across body and defaults *)
}

type cprog = { cp_prog : Ast.program; cp_code : code }

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

type mode =
  | M_fun of (string, int) Hashtbl.t * (string, unit) Hashtbl.t
      (** slot table, names mentioned by a [global] stmt at this level *)
  | M_module

type builder = {
  mutable items : instr array;
  mutable len : int;
  mutable labels : int array;
  mutable nlabels : int;
  mutable pending : int;  (** ticks accumulated, flushed before effects *)
  mutable intervals : (int * int * int * int * int) list;
      (** (open_seq, start_pc, end_pc, brk_label, cont_label); -1 = keep *)
  mutable loops : (int * int) list;
      (** compile-time loop stack (brk label, cont label) for direct
          break/continue jumps within the same code unit *)
  mutable seq : int;
  mode : mode;
}

let new_builder mode =
  {
    items = Array.make 64 I_pop;
    len = 0;
    labels = Array.make 16 (-1);
    nlabels = 0;
    pending = 0;
    intervals = [];
    loops = [];
    seq = 0;
    mode;
  }

let push_raw b i =
  if b.len = Array.length b.items then begin
    let bigger = Array.make (2 * b.len) I_pop in
    Array.blit b.items 0 bigger 0 b.len;
    b.items <- bigger
  end;
  b.items.(b.len) <- i;
  b.len <- b.len + 1

let flush b =
  if b.pending > 0 then begin
    let k = b.pending in
    b.pending <- 0;
    push_raw b (I_tick k)
  end

let tick b = b.pending <- b.pending + 1

(* I_const is pure and non-raising, so a pending tick may slide past it:
   batching stays observationally identical (see Rt.tick_n). *)
let emit b i =
  (match i with I_const _ | I_func _ -> () | _ -> flush b);
  push_raw b i

let new_label b =
  if b.nlabels = Array.length b.labels then begin
    let bigger = Array.make (2 * b.nlabels) (-1) in
    Array.blit b.labels 0 bigger 0 b.nlabels;
    b.labels <- bigger
  end;
  let l = b.nlabels in
  b.nlabels <- l + 1;
  l

let bind_label b l =
  flush b;
  b.labels.(l) <- b.len

(* ------------------------------------------------------------------ *)
(* Stack-depth dataflow                                                *)
(* ------------------------------------------------------------------ *)

let max_stack (instrs : instr array) : int =
  let n = Array.length instrs in
  let depth = Array.make (n + 1) (-1) in
  let maxd = ref 0 in
  let work = Queue.create () in
  let visit pc d =
    if pc <= n && (depth.(pc) < 0 || depth.(pc) < d) then begin
      depth.(pc) <- max depth.(pc) d;
      if d > !maxd then maxd := d;
      if pc < n then Queue.add pc work
    end
  in
  visit 0 0;
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    let d = depth.(pc) in
    match instrs.(pc) with
    | I_tick _ | I_not | I_neg | I_attr _ | I_slice_check | I_global _ ->
      visit (pc + 1) d
    | I_const _ | I_load _ | I_load_name _ | I_func _ | I_class _ ->
      visit (pc + 1) (d + 1)
    | I_pop | I_binop _ | I_store _ | I_store_local _ | I_store_direct _
    | I_store_name _ | I_store_name_direct _ | I_index | I_call1 _
    | I_for_setup ->
      visit (pc + 1) (d - 1)
    | I_store_attr _ -> visit (pc + 1) (d - 2)
    | I_store_index -> visit (pc + 1) (d - 3)
    | I_unpack k -> visit (pc + 1) (d - 1 + k)
    | I_slice (lo, hi) ->
      visit (pc + 1) (d - (if lo then 1 else 0) - (if hi then 1 else 0))
    | I_build_list k | I_build_tuple k -> visit (pc + 1) (d - k + 1)
    | I_build_dict k -> visit (pc + 1) (d - (2 * k) + 1)
    | I_call (k, _) -> visit (pc + 1) (d - k)
    | I_method (_, k, _, _) -> visit (pc + 1) (d - k)
    | I_method_re _ -> visit (pc + 1) (d - 2)
    | I_jump t -> visit t d
    | I_and t | I_or t ->
      visit t d;
      visit (pc + 1) (d - 1)
    | I_branch (_, _, t) ->
      visit t (d - 1);
      visit (pc + 1) (d - 1)
    | I_for_next t ->
      visit t d;
      visit (pc + 1) (d + 1)
    | I_for_pop t -> visit t d
    | I_try tc ->
      (* Sub-units run on the same frame at this depth; their finalized
         stack bounds fold into this unit's. *)
      let sub = tc.t_body.c_stack in
      let sub =
        List.fold_left (fun m (_, _, c) -> max m c.c_stack) sub tc.t_handlers
      in
      let sub =
        match tc.t_finally with Some c -> max sub c.c_stack | None -> sub
      in
      if d + sub > !maxd then maxd := d + sub;
      visit (pc + 1) d
    | I_return _ | I_raise | I_raise_bare | I_fail _ | I_break | I_continue ->
      ()
  done;
  !maxd

let finalize b : code =
  flush b;
  let n = b.len in
  let patch t =
    let pc = b.labels.(t) in
    assert (pc >= 0);
    pc
  in
  let instrs =
    Array.init n (fun i ->
        match b.items.(i) with
        | I_jump t -> I_jump (patch t)
        | I_and t -> I_and (patch t)
        | I_or t -> I_or (patch t)
        | I_branch (et, ef, t) -> I_branch (et, ef, patch t)
        | I_for_next t -> I_for_next (patch t)
        | I_for_pop t -> I_for_pop (patch t)
        | i -> i)
  in
  let brk = Array.make n (-1) in
  let cont = Array.make n (-1) in
  List.iter
    (fun (_, start_pc, end_pc, brk_l, cont_l) ->
      for pc = start_pc to min (end_pc - 1) (n - 1) do
        if brk_l >= 0 then brk.(pc) <- patch brk_l;
        if cont_l >= 0 then cont.(pc) <- patch cont_l
      done)
    (List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)
       b.intervals);
  { c_instrs = instrs; c_brk = brk; c_cont = cont; c_stack = max_stack instrs }

let add_interval b ~start_pc ~end_pc ~brk_l ~cont_l =
  let s = b.seq in
  b.seq <- s + 1;
  b.intervals <- (s, start_pc, end_pc, brk_l, cont_l) :: b.intervals

(* ------------------------------------------------------------------ *)
(* Slot assignment                                                     *)
(* ------------------------------------------------------------------ *)

(* Names assignable at one function level: parameters, simple
   assignment/for targets, def/class names, except binders — without
   descending into nested function or class bodies (those have their
   own frames).  Mirrors exactly where the tree-walker writes
   [frame.scope.vars]. *)
let collect_locals (fn : Ast.func) :
    (string, int) Hashtbl.t * (string, unit) Hashtbl.t * int =
  let slots = Hashtbl.create 16 in
  let flagged = Hashtbl.create 4 in
  let next = ref 0 in
  let add name =
    if not (Hashtbl.mem slots name) then begin
      Hashtbl.add slots name !next;
      incr next
    end
  in
  let rec add_target = function
    | Ast.Tvar n -> add n
    | Ast.Ttuple ts -> List.iter add_target ts
    | Ast.Tattr _ | Ast.Tindex _ -> ()
  in
  let rec walk_stmt (s : Ast.stmt) =
    match s with
    | Ast.Assign (t, _, _) | Ast.Aug_assign (t, _, _, _) -> add_target t
    | Ast.For (t, _, body, _) ->
      add_target t;
      List.iter walk_stmt body
    | Ast.If (arms, els) ->
      List.iter (fun (_, _, b) -> List.iter walk_stmt b) arms;
      (match els with Some b -> List.iter walk_stmt b | None -> ())
    | Ast.While (_, _, b) -> List.iter walk_stmt b
    | Ast.Try (b, handlers, fin) ->
      List.iter walk_stmt b;
      List.iter
        (fun h ->
          (match h.Ast.h_bind with
           | Some n -> add n
           | None ->
             (match h.Ast.h_filter with
              | Some f when not (List.mem f Rt.known_exception_kinds) -> add f
              | _ -> ()));
          List.iter walk_stmt h.Ast.h_body)
        handlers;
      (match fin with Some b -> List.iter walk_stmt b | None -> ())
    | Ast.Func_def f -> add f.Ast.fname
    | Ast.Class_def c -> add c.Ast.cname
    | Ast.Global names -> List.iter (fun n -> Hashtbl.replace flagged n ()) names
    | Ast.Expr_stmt _ | Ast.Return _ | Ast.Raise _ | Ast.Break _
    | Ast.Continue _ | Ast.Pass -> ()
  in
  List.iter add fn.Ast.params;
  List.iter walk_stmt fn.Ast.body;
  (slots, flagged, !next)

(* ------------------------------------------------------------------ *)
(* Expression / statement compilation                                  *)
(* ------------------------------------------------------------------ *)

(* Both Branch events a site can emit, allocated once at compile time:
   the VM's hot branch arm then only conses a shared immutable event. *)
let branch_instr pos target =
  let site = Trace.site_of_pos pos in
  I_branch (Trace.Branch (site, true), Trace.Branch (site, false), target)

let re_method_names = [ "match"; "fullmatch"; "search"; "findall" ]

let mspec_of name args =
  match (name, args) with
  | "strip", [] -> M_strip
  | "lstrip", [] -> M_lstrip
  | "rstrip", [] -> M_rstrip
  | "upper", [] -> M_upper
  | "lower", [] -> M_lower
  | "isdigit", [] -> M_isdigit
  | "isalpha", [] -> M_isalpha
  | "isalnum", [] -> M_isalnum
  | "split", [] -> M_split0
  | "split", [ _ ] -> M_split1
  | "replace", [ _; _ ] -> M_replace
  | "startswith", [ _ ] -> M_startswith
  | "endswith", [ _ ] -> M_endswith
  | "join", [ _ ] -> M_join
  | "find", [ _ ] -> M_find
  | "append", [ _ ] -> M_append
  | _ -> M_generic

let store_var b name pos =
  match b.mode with
  | M_module -> emit b (I_store_name (name, pos))
  | M_fun (slots, flagged) ->
    let slot = Hashtbl.find slots name in
    if Hashtbl.mem flagged name then emit b (I_store (slot, name, pos))
    else emit b (I_store_local (slot, name, pos))

let store_binder b name =
  match b.mode with
  | M_module -> emit b (I_store_name_direct name)
  | M_fun (slots, _) -> emit b (I_store_direct (Hashtbl.find slots name))

let load_var b name =
  match b.mode with
  | M_module -> emit b (I_load_name name)
  | M_fun (slots, _) ->
    (match Hashtbl.find_opt slots name with
     | Some slot -> emit b (I_load (slot, name))
     | None -> emit b (I_load (-1, name)))

let rec compile_expr b (e : Ast.expr) =
  tick b;
  match e with
  | Ast.Int i -> emit b (I_const (Value.Vint i))
  | Ast.Float f -> emit b (I_const (Value.Vfloat f))
  | Ast.Str s -> emit b (I_const (Value.Vstr s))
  | Ast.Bool v -> emit b (I_const (Value.Vbool v))
  | Ast.None_lit -> emit b (I_const Value.Vnone)
  | Ast.Var name -> load_var b name
  | Ast.Binop (Ast.And, a, e2, _) ->
    compile_expr b a;
    let l = new_label b in
    emit b (I_and l);
    compile_expr b e2;
    bind_label b l
  | Ast.Binop (Ast.Or, a, e2, _) ->
    compile_expr b a;
    let l = new_label b in
    emit b (I_or l);
    compile_expr b e2;
    bind_label b l
  | Ast.Binop (op, a, e2, _) ->
    compile_expr b a;
    compile_expr b e2;
    emit b (I_binop op)
  | Ast.Unop (Ast.Neg, e1) ->
    compile_expr b e1;
    emit b I_neg
  | Ast.Unop (Ast.Not, e1) ->
    compile_expr b e1;
    emit b I_not
  | Ast.Cond (c, a, e2, pos) ->
    compile_expr b c;
    let l_else = new_label b and l_end = new_label b in
    emit b (branch_instr pos l_else);
    compile_expr b a;
    emit b (I_jump l_end);
    bind_label b l_else;
    compile_expr b e2;
    bind_label b l_end
  | Ast.Call (f, args, pos) ->
    compile_expr b f;
    List.iter (compile_expr b) args;
    (match args with
     | [ _ ] -> emit b (I_call1 pos)
     | _ -> emit b (I_call (List.length args, pos)))
  | Ast.Method (obj, name, args, pos) ->
    compile_expr b obj;
    List.iter (compile_expr b) args;
    let specialized_re =
      match args with
      | [ Ast.Str pat; _ ] when List.mem name re_method_names ->
        Rt.compile_regex pat
      | _ -> None
    in
    (match specialized_re with
     | Some re -> emit b (I_method_re (name, re, pos))
     | None ->
       emit b (I_method (name, List.length args, pos, mspec_of name args)))
  | Ast.Attr (obj, name) ->
    compile_expr b obj;
    emit b (I_attr name)
  | Ast.Index (c, i, _) ->
    compile_expr b c;
    compile_expr b i;
    emit b I_index
  | Ast.Slice (c, lo, hi, _) ->
    compile_expr b c;
    (* The tree-walker evaluates (and type-checks) the upper bound
       before the lower one — OCaml right-to-left argument order. *)
    (match hi with
     | Some e1 ->
       compile_expr b e1;
       emit b I_slice_check
     | None -> ());
    (match lo with
     | Some e1 ->
       compile_expr b e1;
       emit b I_slice_check
     | None -> ());
    emit b (I_slice (lo <> None, hi <> None))
  | Ast.List_lit es ->
    List.iter (compile_expr b) es;
    emit b (I_build_list (List.length es))
  | Ast.Tuple_lit es ->
    List.iter (compile_expr b) es;
    emit b (I_build_tuple (List.length es))
  | Ast.Dict_lit kvs ->
    (* Value before key: the tree-walker builds each pair with an OCaml
       tuple expression, which evaluates right-to-left. *)
    List.iter
      (fun (k, v) ->
        compile_expr b v;
        compile_expr b k)
      kvs;
    emit b (I_build_dict (List.length kvs))

(* Store the value on stack top into [tgt]; event/effect order matches
   the tree-walker's [assign]. *)
and compile_store b (tgt : Ast.target) (pos : Ast.pos) =
  match tgt with
  | Ast.Tvar name -> store_var b name pos
  | Ast.Tattr (obj_e, name) ->
    compile_expr b obj_e;
    emit b (I_store_attr (name, pos))
  | Ast.Tindex (c_e, i_e) ->
    compile_expr b c_e;
    compile_expr b i_e;
    emit b I_store_index
  | Ast.Ttuple tgts ->
    emit b (I_unpack (List.length tgts));
    List.iter (fun t -> compile_store b t pos) tgts

and compile_stmt b (s : Ast.stmt) =
  tick b;
  match s with
  | Ast.Pass -> ()
  | Ast.Expr_stmt (e, _) ->
    compile_expr b e;
    emit b I_pop
  | Ast.Assign (tgt, e, pos) ->
    compile_expr b e;
    compile_store b tgt pos
  | Ast.Aug_assign (tgt, op, e, pos) ->
    (match tgt with
     | Ast.Tvar name ->
       (* read_target on a variable reads without charging a tick *)
       load_var b name;
       compile_expr b e;
       emit b (I_binop op);
       store_var b name pos
     | Ast.Tattr (obj_e, name) ->
       tick b;  (* read_target evaluates an Attr node: eval entry tick *)
       compile_expr b obj_e;
       emit b (I_attr name);
       compile_expr b e;
       emit b (I_binop op);
       compile_expr b obj_e;
       emit b (I_store_attr (name, pos))
     | Ast.Tindex (c_e, i_e) ->
       tick b;  (* read_target evaluates an Index node *)
       compile_expr b c_e;
       compile_expr b i_e;
       emit b I_index;
       compile_expr b e;
       emit b (I_binop op);
       compile_expr b c_e;
       compile_expr b i_e;
       emit b I_store_index
     | Ast.Ttuple _ ->
       emit b (I_fail ("TypeError", "invalid augmented assignment target")))
  | Ast.If (arms, els) ->
    let l_end = new_label b in
    List.iter
      (fun (cond, pos, body) ->
        compile_expr b cond;
        let l_next = new_label b in
        emit b (branch_instr pos l_next);
        List.iter (compile_stmt b) body;
        emit b (I_jump l_end);
        bind_label b l_next)
      arms;
    (match els with Some body -> List.iter (compile_stmt b) body | None -> ());
    bind_label b l_end
  | Ast.While (cond, pos, body) ->
    let l_top = new_label b and l_end = new_label b in
    flush b;
    let start_pc = b.len in
    bind_label b l_top;
    compile_expr b cond;
    emit b (branch_instr pos l_end);
    flush b;
    let body_pc = b.len in
    b.loops <- (l_end, l_top) :: b.loops;
    List.iter (compile_stmt b) body;
    b.loops <- List.tl b.loops;
    emit b (I_jump l_top);
    let end_pc = b.len in
    bind_label b l_end;
    (* Break is caught around condition and body; Continue only around
       the body — a Continue escaping the condition leaves the loop. *)
    add_interval b ~start_pc ~end_pc ~brk_l:l_end ~cont_l:(-1);
    add_interval b ~start_pc:body_pc ~end_pc ~brk_l:(-1) ~cont_l:l_top
  | Ast.For (tgt, iter_e, body, pos) ->
    compile_expr b iter_e;
    emit b I_for_setup;
    let l_top = new_label b and l_brk = new_label b and l_end = new_label b in
    flush b;
    let start_pc = b.len in
    bind_label b l_top;
    emit b (I_for_next l_end);
    tick b;  (* the per-item tick site *)
    compile_store b tgt pos;
    flush b;
    let body_pc = b.len in
    b.loops <- (l_brk, l_top) :: b.loops;
    List.iter (compile_stmt b) body;
    b.loops <- List.tl b.loops;
    emit b (I_jump l_top);
    let end_pc = b.len in
    bind_label b l_brk;
    emit b (I_for_pop l_end);
    bind_label b l_end;
    (* The iterable expression evaluates outside the Break catch; the
       per-item tick and target assignment are inside it but outside
       the Continue catch, exactly like the tree-walker's List.iter. *)
    add_interval b ~start_pc ~end_pc ~brk_l:l_brk ~cont_l:(-1);
    add_interval b ~start_pc:body_pc ~end_pc ~brk_l:(-1) ~cont_l:l_top
  | Ast.Return (e_opt, pos) ->
    (match e_opt with
     | Some e -> compile_expr b e
     | None -> emit b (I_const Value.Vnone));
    emit b (I_return (Trace.site_of_pos pos))
  | Ast.Raise (e_opt, _) ->
    (match e_opt with
     | None -> emit b I_raise_bare
     | Some e ->
       compile_expr b e;
       emit b I_raise)
  | Ast.Try (body, handlers, fin) ->
    let sub blk =
      let sb = new_builder b.mode in
      List.iter (compile_stmt sb) blk;
      finalize sb
    in
    let t_handlers =
      List.map
        (fun h ->
          let hmatch =
            match h.Ast.h_filter with
            | None -> H_any
            | Some f ->
              if List.mem f Rt.known_exception_kinds then
                if f = "Exception" then H_any else H_exact f
              else H_any  (* py2-style "except e:" catch-all binder *)
          in
          let hbind =
            let bind_name =
              match h.Ast.h_bind with
              | Some n -> Some n
              | None ->
                (match h.Ast.h_filter with
                 | Some f when not (List.mem f Rt.known_exception_kinds) ->
                   Some f
                 | _ -> None)
            in
            match bind_name with
            | None -> B_none
            | Some n ->
              (match b.mode with
               | M_module -> B_name n
               | M_fun (slots, _) -> B_slot (Hashtbl.find slots n))
          in
          (hmatch, hbind, sub h.Ast.h_body))
        handlers
    in
    emit b
      (I_try
         {
           t_body = sub body;
           t_handlers;
           t_finally = Option.map sub fin;
         })
  | Ast.Break _ ->
    (match b.loops with
     | (brk_l, _) :: _ -> emit b (I_jump brk_l)
     | [] -> emit b I_break)
  | Ast.Continue _ ->
    (match b.loops with
     | (_, cont_l) :: _ -> emit b (I_jump cont_l)
     | [] -> emit b I_continue)
  | Ast.Func_def fn ->
    emit b (I_func fn);
    store_binder b fn.Ast.fname
  | Ast.Class_def c ->
    emit b (I_class c);
    store_binder b c.Ast.cname
  | Ast.Global names -> emit b (I_global names)

(* ------------------------------------------------------------------ *)
(* Code-unit entry points and per-domain caches                        *)
(* ------------------------------------------------------------------ *)

let m_compile_ns = Telemetry.counter "vm.compile_ns"
let m_compiles = Telemetry.counter "vm.compiles"
let m_cache_hits = Telemetry.counter "vm.compile_cache_hits"

type stats_snapshot = { compiles : int; cache_hits : int }

type dom_stats = { mutable s_compiles : int; mutable s_hits : int }

let dom_stats_key : dom_stats Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { s_compiles = 0; s_hits = 0 })

let stats () =
  let s = Domain.DLS.get dom_stats_key in
  { compiles = s.s_compiles; cache_hits = s.s_hits }

let compile_func_uncached (fn : Ast.func) : cfunc =
  let slots, flagged, nslots = collect_locals fn in
  let mode = M_fun (slots, flagged) in
  let b = new_builder mode in
  List.iter (compile_stmt b) fn.Ast.body;
  let cf_code = finalize b in
  let cf_defaults =
    List.map
      (fun (p, e) ->
        let db = new_builder mode in
        compile_expr db e;
        (p, finalize db))
      fn.Ast.defaults
  in
  let cf_stack =
    List.fold_left
      (fun m (_, c) -> max m c.c_stack)
      cf_code.c_stack cf_defaults
  in
  {
    cf_fn = fn;
    cf_code;
    cf_nslots = nslots;
    cf_param_slots =
      Array.of_list (List.map (fun p -> Hashtbl.find slots p) fn.Ast.params);
    cf_defaults;
    cf_stack;
  }

let compile_prog_uncached (p : Ast.program) : cprog =
  let b = new_builder M_module in
  List.iter (compile_stmt b) p.Ast.prog_body;
  { cp_prog = p; cp_code = finalize b }

(* Physical-identity caches: Repolib.Repo.parse_each shares AST nodes
   across every run of a candidate, so (==) keying is both sound (a
   re-parse makes fresh nodes) and hit on the hot path. *)
module FuncKey = struct
  type t = Ast.func

  let equal = ( == )

  let hash (f : Ast.func) =
    Hashtbl.hash (f.Ast.fname, f.Ast.fpos.Ast.file, f.Ast.fpos.Ast.line)
end

module FuncTbl = Hashtbl.Make (FuncKey)

(* Programs from one file (a script and its per-variable rewrites,
   fuzzer-generated programs) share [prog_file], so the hash mixes in
   the body length and the first statement, of which [Hashtbl.hash]
   reads only a bounded prefix, to spread them over buckets. *)
module ProgKey = struct
  type t = Ast.program

  let equal = ( == )

  let hash (p : Ast.program) =
    Hashtbl.hash
      ( p.Ast.prog_file,
        List.length p.Ast.prog_body,
        List.nth_opt p.Ast.prog_body 0 )
end

module ProgTbl = Hashtbl.Make (ProgKey)

let func_cache : cfunc FuncTbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> FuncTbl.create 64)

let prog_cache : cprog ProgTbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ProgTbl.create 32)

let timed_compile f =
  let s = Domain.DLS.get dom_stats_key in
  let telemetry = Telemetry.enabled () in
  let t0 = if telemetry then Telemetry.now_ns () else 0L in
  let r = f () in
  if telemetry then begin
    Telemetry.incr ~by:(Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0))
      m_compile_ns;
    Telemetry.incr m_compiles
  end;
  s.s_compiles <- s.s_compiles + 1;
  r

let func (fn : Ast.func) : cfunc =
  let cache = Domain.DLS.get func_cache in
  match FuncTbl.find_opt cache fn with
  | Some cf ->
    let s = Domain.DLS.get dom_stats_key in
    s.s_hits <- s.s_hits + 1;
    if Telemetry.enabled () then Telemetry.incr m_cache_hits;
    cf
  | None ->
    let cf = timed_compile (fun () -> compile_func_uncached fn) in
    FuncTbl.add cache fn cf;
    cf

let program (p : Ast.program) : cprog =
  let cache = Domain.DLS.get prog_cache in
  match ProgTbl.find_opt cache p with
  | Some cp ->
    let s = Domain.DLS.get dom_stats_key in
    s.s_hits <- s.s_hits + 1;
    if Telemetry.enabled () then Telemetry.incr m_cache_hits;
    cp
  | None ->
    let cp = timed_compile (fun () -> compile_prog_uncached p) in
    ProgTbl.add cache p cp;
    cp
