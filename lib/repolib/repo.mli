(** The repository model of the simulated open-source ecosystem. *)

type file = { path : string; source : string }

type t = {
  repo_name : string;  (** "owner/project" *)
  description : string;
  readme : string;
  stars : int;
  files : file list;
  truth : (string * string list) list;
      (** function name → benchmark type ids it intends to process;
          this is the ground truth behind the human intention score
          I(F) of Section 8.1 and is never visible to the pipeline *)
}

val make :
  ?readme:string ->
  ?stars:int ->
  ?truth:(string * string list) list ->
  string ->
  string ->
  file list ->
  t

val intends : t -> func_name:string -> type_id:string -> bool
(** I(F): does the named function intend to process the type? *)

val parse_all : t -> (Minilang.Ast.program list, string) result

type ('k, 'v) memo
(** A table of values computed per repository and key. *)

val memo : unit -> ('k, 'v) memo

val memoize : ('k, 'v) memo -> t -> 'k -> (unit -> 'v) -> 'v
(** [memoize m repo k compute] returns the value stored for [repo] and
    [k], computing and storing it on a miss.  An entry matches only a
    repository with the same name and an equal file list, so
    same-named repositories whose file lists collide under
    [Hashtbl.hash] get separate entries.  Safe to call from several
    domains; when two compute the same entry, the first insert wins. *)

val parse_each : t -> Minilang.Ast.program list * (string * int * string) list
(** Cached per-file parse: the programs that parse, plus a
    [(path, line, message)] record for each file that does not.  The
    analyzer and driver use this to keep working candidates from
    repositories with one broken file. *)

val programs : t -> Minilang.Ast.program list option
(** Cached parse of all files; [None] when any file fails to parse
    (the paper keeps only repositories that compile). *)
