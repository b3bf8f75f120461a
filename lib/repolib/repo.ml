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

(* Per-repository memo tables.  Parse results and the analyzer's facts
   are computed many times per repository, so each is memoized under
   the repository's name plus a hash of its file list.  [Hashtbl.hash]
   stops after a few meaningful values, so two same-named repositories
   differing only in their fifth file or a later one share a key.  Each
   entry therefore keeps the file list it was computed from, and a
   lookup checks it — [==] first (corpus repositories are built once),
   then structurally — so colliding repositories get separate entries.
   A mutex guards each table because the execution engine (lib/exec)
   traces candidates from several domains; the computation itself runs
   outside the lock, so two domains may compute the same entry
   concurrently — benign, the results are equal and the first insert
   wins. *)
type ('k, 'v) memo = {
  table : (string * int * 'k, file list * 'v) Hashtbl.t;
  lock : Mutex.t;
}

let memo () = { table = Hashtbl.create 64; lock = Mutex.create () }

let memoize m repo k compute =
  let key = (repo.repo_name, Hashtbl.hash repo.files, k) in
  let find () =
    List.find_map
      (fun (fs, v) ->
        if fs == repo.files || fs = repo.files then Some v else None)
      (Hashtbl.find_all m.table key)
  in
  match Mutex.protect m.lock find with
  | Some v -> v
  | None ->
    let v = compute () in
    Mutex.protect m.lock (fun () ->
        match find () with
        | Some first -> first
        | None ->
          Hashtbl.add m.table key (repo.files, v);
          v)

type parsed = Minilang.Ast.program list * (string * int * string) list

let parse_memo : (unit, parsed) memo = memo ()

let parse_each repo : parsed =
  memoize parse_memo repo () (fun () ->
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
      (List.rev progs, List.rev errs))

let programs repo =
  match parse_each repo with
  | progs, [] -> Some progs
  | _, _ :: _ -> None
