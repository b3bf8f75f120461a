(* Shared machinery for the three workloads: clock, command line,
   benchmark-side spans, the per-process result, and the scratch
   directory runs write into. *)

let now_ns () = Telemetry.now_ns ()
let ms_of_ns ns = Int64.to_float ns /. 1e6
let s_of_ns ns = Int64.to_float ns /. 1e9

let elapsed_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.sub (now_ns ()) t0)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;  (** this process's share of the run *)
  trace : bool;
}

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let parse_args argv =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | a :: _ -> raise (Arg.Bad ("unexpected argument " ^ a))
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | "", _, _, _ | _, None, _, _ | _, _, None, _ | _, _, _, None ->
    raise (Arg.Bad usage)
  | workload, Some seed, Some seconds, Some trace ->
    if not (seconds > 0.0) then raise (Arg.Bad "--seconds must be positive");
    { workload; seed; seconds; trace }

(* Whole rounds covering [seconds] at a fixed nominal rate.  The op
   count depends only on the arguments, never on how fast this machine
   or commit runs, so two commits always do identical work and any
   drift that grows with the op count repeats exactly.  Traced runs
   round up to an even count, so their traced and untraced halves are
   equal. *)
let rounds (args : args) ~rounds_per_second ~min_rounds =
  let r =
    max min_rounds
      (int_of_float (Float.round (args.seconds *. rounds_per_second)))
  in
  if args.trace then r + (r land 1) else r

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  scan ()

(* Live major-heap data in MB, measured after a full major collection
   so that only reachable data counts. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
  /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* Benchmark-side spans around each call into a layer.  They live in
   memory and are written out once, when the run ends.  Timed runs never
   open one. *)
module Span = struct
  type t = {
    id : int;
    name : string;
    op : int;
    parent : int;  (** -1 for an op's root span *)
    start_ns : int64;
    mutable end_ns : int64;
  }

  (* Off outside traced ops: [with_] then just calls its thunk. *)
  let active = ref false
  let all : t list ref = ref []
  let count = ref 0
  let current = ref (-1)
  let current_op = ref 0

  (* Run [f] as traced op [op]: spans on, telemetry counters on and
     fresh for the op. *)
  let traced_op op f =
    current_op := op;
    active := true;
    Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        Telemetry.disable ();
        active := false)
      f

  (* Record a span whose interval was measured elsewhere (replayed
     layers of a daemon round trip). *)
  let record ~parent ~name ~start_ns ~end_ns =
    let s = { id = !count; name; op = !current_op; parent; start_ns; end_ns } in
    incr count;
    all := s :: !all;
    s

  let with_ name f =
    if not !active then f ()
    else begin
      let start_ns = now_ns () in
      let s = record ~parent:!current ~name ~start_ns ~end_ns:start_ns in
      let saved = !current in
      current := s.id;
      Fun.protect
        ~finally:(fun () ->
          s.end_ns <- now_ns ();
          current := saved)
        f
    end

  let dur s = Int64.sub s.end_ns s.start_ns

  (* Self time of every span: its duration minus its children's.  The
     result is summed per name, in ns. *)
  let self_by_name () =
    let children = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            (Int64.add (dur s)
               (Option.value ~default:0L (Hashtbl.find_opt children s.parent))))
      !all;
    let totals = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self =
          Int64.sub (dur s)
            (Option.value ~default:0L (Hashtbl.find_opt children s.id))
        in
        Hashtbl.replace totals s.name
          (Int64.add self
             (Option.value ~default:0L (Hashtbl.find_opt totals s.name))))
      !all;
    totals

  let self_ns totals name =
    Option.value ~default:0L (Hashtbl.find_opt totals name)

  let count_named name =
    List.fold_left (fun n s -> if s.name = name then n + 1 else n) 0 !all

  (* Mean self time per span of [name], in ns. *)
  let mean_ns totals name =
    let n = count_named name in
    if n = 0 then 0.0
    else Int64.to_float (self_ns totals name) /. float_of_int n

  let write path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%s,\
           \"start_ns\":%Ld,\"end_ns\":%Ld}\n"
          s.id s.name s.op
          (if s.parent < 0 then "null" else string_of_int s.parent)
          s.start_ns s.end_ns)
      (List.rev !all)
end

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What one process reports.  The wrapper pools the timed phases of
   several processes into the end-to-end metrics. *)
type outcome =
  | Timed of {
      setup_ns : int64;
      lat_ms : float array;  (** per op *)
      period : int;
          (** distinct ops: op [i] repeats the work of op [i mod period] *)
      in_flight : int;  (** requests the closed loop keeps outstanding *)
      attempted : int;
      failed : int;
    }
  | Layers of { attempted : int; failed : int; metrics : metric list }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_outcome = function
  | Timed t ->
    Printf.printf
      "{\"setup_s\": %s, \"peak_rss_mb\": %s, \"attempted\": %d, \
       \"failed\": %d, \"period\": %d, \"in_flight\": %d, \
       \"lat_ms\": [%s]}\n%!"
      (json_float (s_of_ns t.setup_ns))
      (json_float (peak_rss_mb ()))
      t.attempted t.failed t.period t.in_flight
      (String.concat ", " (Array.to_list (Array.map json_float t.lat_ms)))
  | Layers l ->
    let metrics =
      List.map
        (fun mt ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
            (json_float mt.value) mt.unit_)
        l.metrics
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
       \"metrics\": {%s}}\n%!"
      (l.failed = 0) l.attempted l.failed
      (String.concat ", " metrics)

(* Traced wall time over untraced wall time, minus 1, for the two
   halves of a traced run. *)
let overhead ~traced_ns ~untraced_ns =
  m "trace_overhead_share" "share"
    (ratio (Int64.to_float traced_ns) (Int64.to_float untraced_ns) -. 1.0)

(* ------------------------------------------------------------------ *)
(* Scratch directory                                                    *)
(* ------------------------------------------------------------------ *)

(* Everything a run writes lives under this directory of the checkout;
   the benchmark's own files never change. *)
let runs_dir = "_perfbench_runs"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* A fresh per-process directory, removed when [f] returns. *)
let with_scratch_dir tag f =
  let dir =
    Filename.concat (Sys.getcwd ())
      (Filename.concat runs_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ())))
  in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let trace_path workload =
  mkdir_p runs_dir;
  Filename.concat runs_dir (Printf.sprintf "trace-%s.jsonl" workload)
