(** The repository model of the simulated open-source ecosystem.

    A repository has a name, a description, a README, some MiniScript
    source files, and a star count (used as a weak popularity prior by
    the search engine, like real code search does).  [truth] records
    which benchmark types each function *intends* to process — this is
    the ground truth behind the human intention score I(F) of
    Section 8.1; it is never visible to the synthesis pipeline itself. *)

type file = { path : string; source : string }

type t = {
  repo_name : string;  (** "owner/project" *)
  description : string;
  readme : string;
  stars : int;
  files : file list;
  truth : (string * string list) list;
      (** function name -> benchmark type ids it intends to process.
          Script-level candidates use the pseudo-name "<script:path>". *)
}

let make ?(readme = "") ?(stars = 10) ?(truth = []) repo_name description
    files =
  { repo_name; description; readme; stars; files; truth }

(** Does [func_name] (as reported by the analyzer) intend to process
    benchmark type [type_id]?  This is I(F) in the evaluation metric. *)
let intends repo ~func_name ~type_id =
  match List.assoc_opt func_name repo.truth with
  | Some types -> List.mem type_id types
  | None -> false

let parse_all repo : (Minilang.Ast.program list, string) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest ->
      (match Minilang.Parser.parse ~file:f.path f.source with
       | prog -> go (prog :: acc) rest
       | exception Minilang.Parser.Parse_error (msg, line) ->
         Error (Printf.sprintf "%s:%d: %s" f.path line msg)
       | exception Minilang.Lexer.Lex_error (msg, line) ->
         Error (Printf.sprintf "%s:%d: lex: %s" f.path line msg))
  in
  go [] repo.files

(* Parse results are cached per repository: the analyzer and the
   execution driver both re-load modules many times.  The key is the
   name plus a hash of the file list, but [Hashtbl.hash] stops after a
   few meaningful values, so two same-named repositories differing
   only in their fifth file or a later one share a key.  Each entry
   therefore keeps the file list it was parsed from, and a lookup
   checks it — [==] first (corpus repositories are built once), then
   structurally — so colliding repositories get separate entries.  A
   mutex guards the table because the execution engine (lib/exec)
   traces candidates from several domains; parsing itself happens
   outside the lock, so two domains may parse the same repository once
   concurrently — benign, the results are equal and the first insert
   wins. *)
type parsed = Minilang.Ast.program list * (string * int * string) list

let parse_cache : (string * int, file list * parsed) Hashtbl.t =
  Hashtbl.create 64

let parse_cache_lock = Mutex.create ()

let cached key files =
  List.find_map
    (fun (fs, result) -> if fs == files || fs = files then Some result else None)
    (Hashtbl.find_all parse_cache key)

let parse_each repo : parsed =
  let key = (repo.repo_name, Hashtbl.hash repo.files) in
  Mutex.lock parse_cache_lock;
  match cached key repo.files with
  | Some result ->
    Mutex.unlock parse_cache_lock;
    result
  | None ->
    Mutex.unlock parse_cache_lock;
    let progs, errs =
      List.fold_left
        (fun (progs, errs) f ->
          match Minilang.Parser.parse ~file:f.path f.source with
          | prog -> (prog :: progs, errs)
          | exception Minilang.Parser.Parse_error (msg, line) ->
            (progs, (f.path, line, msg) :: errs)
          | exception Minilang.Lexer.Lex_error (msg, line) ->
            (progs, (f.path, line, "lex: " ^ msg) :: errs))
        ([], []) repo.files
    in
    let result = (List.rev progs, List.rev errs) in
    Mutex.lock parse_cache_lock;
    let result =
      match cached key repo.files with
      | Some first -> first
      | None ->
        Hashtbl.add parse_cache key (repo.files, result);
        result
    in
    Mutex.unlock parse_cache_lock;
    result

let programs repo =
  match parse_each repo with
  | progs, [] -> Some progs
  | _, _ :: _ -> None
