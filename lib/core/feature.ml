(** Featurization of execution traces (Section 5.2).

    Each branch event becomes the binary literal [bᵢ == True/False]; each
    return event becomes a literal over the abstracted value (True/False
    for booleans, 0 / ≠0 for numbers and collection lengths, None /
    ≠None for composites); uncaught exceptions are literals too (the
    paper records them in traces, Example 1).  The set-based model is
    used — order and multiplicity are dropped — which the paper found
    expressive enough while avoiding sparsity. *)

open Minilang

type literal =
  | Branch_is of Trace.site * bool
  | Return_is of Trace.site * Trace.ret_abstract
  | Raised of string  (** uncaught exception kind *)

let literal_to_string = function
  | Branch_is (s, b) ->
    Printf.sprintf "b%s == %s" (Trace.site_to_string s)
      (if b then "True" else "False")
  | Return_is (s, r) ->
    Printf.sprintf "r%s %s" (Trace.site_to_string s)
      (match r with
       | Trace.Rbool true -> "== True"
       | Trace.Rbool false -> "== False"
       | Trace.Rzero -> "== 0"
       | Trace.Rnonzero -> "!= 0"
       | Trace.Rnone -> "is None"
       | Trace.Rnotnone -> "is not None"
       | Trace.Rvoid -> "is void")
  | Raised kind -> Printf.sprintf "raises %s" kind

(* Hand-written rather than [Stdlib.compare] (which walks the values
   generically and dominates featurization), but in exactly the order
   [Stdlib.compare] gives, so every literal set, DNF and ranked output
   is unchanged: constructors in declaration order, then the site (file,
   then line), then the payload.  [Stdlib.compare] puts constant
   constructors before non-constant ones, hence [Rbool] last. *)
let ret_rank = function
  | Trace.Rzero -> 0
  | Trace.Rnonzero -> 1
  | Trace.Rnone -> 2
  | Trace.Rnotnone -> 3
  | Trace.Rvoid -> 4
  | Trace.Rbool false -> 5
  | Trace.Rbool true -> 6

let compare_literal (a : literal) (b : literal) =
  match (a, b) with
  | Branch_is (s1, b1), Branch_is (s2, b2) ->
    let c = Trace.compare_site s1 s2 in
    if c <> 0 then c else Bool.compare b1 b2
  | Branch_is _, _ -> -1
  | _, Branch_is _ -> 1
  | Return_is (s1, r1), Return_is (s2, r2) ->
    let c = Trace.compare_site s1 s2 in
    if c <> 0 then c else Int.compare (ret_rank r1) (ret_rank r2)
  | Return_is _, _ -> -1
  | _, Return_is _ -> 1
  | Raised k1, Raised k2 -> String.compare k1 k2

module Literal_set = Set.Make (struct
  type t = literal

  let compare = compare_literal
end)

(** Which event kinds participate in featurization.  [`All] is the full
    DNF-S/DNF-C feature space; [`Returns_only] is the RET baseline that
    treats functions as black boxes (Section 8.1): only the *final*
    output value abstraction and uncaught exceptions are observable —
    no branch sites, no intermediate returns of callees. *)
type mode = [ `All | `Returns_only ]

let blackbox_site = { Trace.s_file = "<output>"; s_line = 0 }

let featurize ?(mode = `All) (trace : Trace.t) : Literal_set.t =
  let blackbox trace =
    (* Site-less literal for the run's final output value, so that DNFs
       built in `Returns_only` mode evaluate under `All` featurization. *)
    let final_return =
      List.fold_left
        (fun acc ev ->
          match ev with Trace.Return (_, r) -> Some r | _ -> acc)
        None trace
    in
    match final_return with
    | Some r -> Literal_set.singleton (Return_is (blackbox_site, r))
    | None -> Literal_set.empty
  in
  match mode with
  | `All ->
    List.fold_left
      (fun acc ev ->
        match ev with
        | Trace.Branch (site, taken) ->
          Literal_set.add (Branch_is (site, taken)) acc
        | Trace.Return (site, r) -> Literal_set.add (Return_is (site, r)) acc
        | Trace.Exception kind -> Literal_set.add (Raised kind) acc
        | Trace.Assign _ -> acc)
      (blackbox trace) trace
  | `Returns_only ->
    let exceptions =
      List.filter_map
        (function Trace.Exception kind -> Some (Raised kind) | _ -> None)
        trace
    in
    List.fold_left
      (fun acc l -> Literal_set.add l acc)
      (blackbox trace) exceptions
