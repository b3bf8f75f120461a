(* serve_churn: [Serve.Daemon.run_fds] serves the 20 popular-type models
   on one end of a socketpair, in a second domain, from a registry whose
   capacity is below 20, so most requests load an artifact and evict
   another.  One client thread keeps two requests outstanding (closed
   loop); an op is one request round trip. *)

open Common
module D = Tablecorpus.Detect
module J = Model.Jsonx
module F = Serve.Frame
module Pr = Serve.Protocol

let capacity = 4
let n_columns = 120

(* 160 values keep a round trip above a millisecond, clear of
   scheduler jitter. *)
let values_per_column = 160
let pool_size = 200
let passes_per_second = 1.12
let min_passes = 5
let outstanding = 2

type request = {
  ty : string;
  values : string list;
  validate : bool;  (** validate op, else detect *)
}

let payload ~id rq =
  J.to_string
    (J.Obj
       [ ("id", J.Int id);
         ("op", J.Str (if rq.validate then "validate" else "detect"));
         ("type", J.Str rq.ty);
         ("values", J.List (List.map (fun v -> J.Str v) rq.values)) ])

(* The in-process answer for a request: [Detect]'s own value and column
   serving over the same artifact (the interpreter route). *)
type answer = Verdicts of D.value_verdict list | Column of D.column_verdict

let response ~id ~trace_id = function
  | Verdicts verdicts -> Pr.ok_validate ~id ~trace_id ~verdicts
  | Column verdict -> Pr.ok_detect ~id ~trace_id ~verdict

(* A reply is correct when it is byte-identical to the response the
   protocol builds from the in-process answer. *)
let reply_ok ~id expected reply =
  match Pr.reply_of_json reply with
  | Error _ -> false
  | Ok r ->
    r.Pr.rp_id = id
    &&
    match Telemetry.Context.id_of_hex r.Pr.rp_trace_id with
    | None -> false
    | Some trace_id -> response ~id ~trace_id expected = reply

(* --- client ----------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; dec : F.decoder; buf : Bytes.t }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Block until the next reply frame. *)
let rec next_reply c =
  match F.next c.dec with
  | Some (F.Payload p) -> p
  | Some _ -> failwith "malformed frame from the daemon"
  | None ->
    (match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
     | 0 -> failwith "daemon closed the connection"
     | n ->
       F.feed c.dec (Bytes.sub_string c.buf 0 n);
       next_reply c)

(* Closed loop over [frames]: [outstanding] requests in flight, the next
   sent as soon as a reply arrives.  Replies come back in request order
   on the one connection.  Returns per-op send and receive instants and
   the reply payloads. *)
let closed_loop c (frames : string array) =
  let n = Array.length frames in
  let sent = Array.make n 0L and recv = Array.make n 0L in
  let replies = Array.make n "" in
  let next = ref 0 in
  let send () =
    if !next < n then begin
      sent.(!next) <- now_ns ();
      write_all c.fd frames.(!next);
      incr next
    end
  in
  for _ = 1 to outstanding do send () done;
  for i = 0 to n - 1 do
    replies.(i) <- next_reply c;
    recv.(i) <- now_ns ();
    send ()
  done;
  (sent, recv, replies)

(* --- replayed layers (traced run) -------------------------------------- *)

(* Replay one op's daemon-side work in-process, a span per layer, under
   a root span carrying the op's measured round trip.  What the replay
   does not account for is the root's self time: the daemon's select
   loop, socket I/O and waiting. *)
let replay registry ~frame ~sent ~recv =
  let root =
    (Span.record ~parent:(-1) ~name:"serve.roundtrip" ~start_ns:sent
       ~end_ns:recv).Span.id
  in
  Span.current := root;
  let payload =
    Span.with_ "serve.frame_decode" (fun () ->
        let dec = F.decoder () in
        F.feed dec frame;
        match F.next dec with
        | Some (F.Payload p) -> p
        | _ -> failwith "replay: bad frame")
  in
  let rq =
    Span.with_ "serve.request_decode" (fun () ->
        match Pr.request_of_json payload with
        | Ok rq -> rq
        | Error pe -> failwith pe.Pr.pe_reason)
  in
  let hits0, _ = Model.Registry.cache_stats registry in
  let t0 = now_ns () in
  let entry = Models.find_exn registry (Option.get rq.Pr.rq_type) in
  let t1 = now_ns () in
  let hits1, _ = Model.Registry.cache_stats registry in
  ignore
    (Span.record ~parent:root
       ~name:(if hits1 > hits0 then "model.find_hit" else "model.find_miss")
       ~start_ns:t0 ~end_ns:t1);
  let det =
    Span.with_ "tablecorpus.detector_build" (fun () -> D.serve_detector entry)
  in
  let values = rq.Pr.rq_values in
  let answer =
    Span.with_ "tablecorpus.eval" (fun () ->
        if rq.Pr.rq_op = Pr.Validate then
          Verdicts
            (List.map
               (fun v -> if det.D.accepts v then D.V_valid else D.V_invalid)
               values)
        else
          let f = D.fraction_accepted det.D.accepts values in
          Column
            (if f > D.detection_threshold then D.Column_match f
             else D.Column_no_match f))
  in
  Span.with_ "serve.encode" (fun () ->
      ignore (F.encode (response ~id:rq.Pr.rq_id ~trace_id:1L answer)));
  Span.current := -1

(* --- the workload ------------------------------------------------------ *)

(* Every type appears equally often in the pool; the seed picks the
   order and the columns. *)
let request_pool ~seed =
  let columns = Models.columns ~seed ~n:n_columns ~values_per_column in
  let ids = Array.of_list Models.type_ids in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let order = Array.init pool_size (fun q -> q mod Array.length ids) in
  for q = pool_size - 1 downto 1 do
    let r = Random.State.int rng (q + 1) in
    let t = order.(q) in
    order.(q) <- order.(r);
    order.(r) <- t
  done;
  Array.mapi
    (fun q t ->
      { ty = ids.(t);
        values = columns.(Random.State.int rng n_columns);
        validate = q land 1 = 0 })
    order

let run (args : args) =
  let t_start = now_ns () in
  with_scratch_dir "serve" @@ fun dir ->
  Models.compile_all dir;
  let pool = request_pool ~seed:args.seed in
  let expected =
    let local = Models.open_registry ~capacity:20 dir in
    Array.map
      (fun rq ->
        let syn = (Models.find_exn local rq.ty).Model.Registry.synthesis in
        if rq.validate then Verdicts (D.serve_values syn rq.values)
        else Column (D.serve_column syn rq.values))
      pool
  in
  let client, server =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let daemon_registry = Models.open_registry ~capacity dir in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run_fds
          (Serve.Daemon.config daemon_registry)
          ~in_fd:server ~out_fd:server)
  in
  let c = { fd = client; dec = F.decoder (); buf = Bytes.create 65536 } in
  (* Closing the client end on every exit gives the daemon EOF, so its
     domain always ends and is joined. *)
  let shut_down () =
    (try
       write_all client (F.encode {|{"id":0,"op":"shutdown"}|});
       ignore (next_reply c)
     with _ -> ());
    Unix.close client;
    ignore (Domain.join daemon);
    Unix.close server
  in
  Fun.protect ~finally:shut_down @@ fun () ->
  (* Op [i] sends pool request [i mod pool_size] under id [i + 1]. *)
  let frames lo n =
    Array.init n (fun k ->
        let i = lo + k in
        F.encode (payload ~id:(i + 1) pool.(i mod pool_size)))
  in
  let count_failed lo replies =
    let failed = ref 0 in
    Array.iteri
      (fun k reply ->
        let i = lo + k in
        if not (reply_ok ~id:(i + 1) expected.(i mod pool_size) reply) then
          incr failed)
      replies;
    !failed
  in
  (* Warm-up: one request per type. *)
  ignore
    (closed_loop c
       (Array.of_list
          (List.mapi
             (fun k ty ->
               F.encode (payload ~id:(-1 - k) { (pool.(0)) with ty }))
             Models.type_ids)));
  (* A full collection ends set-up, so the timed phase starts from the
     same heap state on every run. *)
  let heap0 = live_heap_mb () in
  let setup_ns = Int64.sub (now_ns ()) t_start in
  let passes =
    rounds args ~rounds_per_second:passes_per_second ~min_rounds:min_passes
  in
  let n_ops = passes * pool_size in
  if not args.trace then begin
    let sent, recv, replies = closed_loop c (frames 0 n_ops) in
    let lat = Array.mapi (fun i s -> ms_of_ns (Int64.sub recv.(i) s)) sent in
    Timed
      { setup_ns; lat_ms = lat; attempted = n_ops;
        failed = count_failed 0 replies; period = pool_size;
        in_flight = outstanding }
  end
  else begin
    (* Passes alternate: untraced, then traced with the program's
       telemetry on.  Traced ops are replayed layer by layer once every
       pass is done, so the replay's garbage never lands inside a
       measured pass. *)
    let failed = ref 0 in
    let untraced_ns = ref 0L and traced_ns = ref 0L in
    let roundtrip_ns = ref 0L and to_replay = ref [] in
    let requests = ref 0 and batches = ref 0 and compiles = ref 0 in
    let evictions = ref 0 and load_ns = ref 0L and loads = ref 0 in
    let daemon_hits = ref 0 and daemon_finds = ref 0 in
    for pass = 0 to passes - 1 do
      let lo = pass * pool_size in
      let fr = frames lo pool_size in
      if pass land 1 = 0 then begin
        let (_, _, replies), ns = elapsed_ns (fun () -> closed_loop c fr) in
        untraced_ns := Int64.add !untraced_ns ns;
        failed := !failed + count_failed lo replies
      end
      else begin
        let h0, m0 = Model.Registry.cache_stats daemon_registry in
        Telemetry.enable ();
        let (sent, recv, replies), ns =
          elapsed_ns (fun () -> closed_loop c fr)
        in
        Telemetry.disable ();
        let h1, m1 = Model.Registry.cache_stats daemon_registry in
        daemon_hits := !daemon_hits + (h1 - h0);
        daemon_finds := !daemon_finds + (h1 - h0) + (m1 - m0);
        traced_ns := Int64.add !traced_ns ns;
        Array.iteri
          (fun k s ->
            roundtrip_ns := Int64.add !roundtrip_ns (Int64.sub recv.(k) s))
          sent;
        let count = Telemetry.find_counter (Telemetry.snapshot ()) in
        requests := !requests + count "daemon.requests";
        batches := !batches + count "daemon.batches";
        compiles := !compiles + count "vm.compiles";
        evictions := !evictions + count "serve.cache_evictions";
        load_ns := Int64.add !load_ns (Telemetry.total_ns "model.load");
        loads := !loads + List.length (Telemetry.spans_named "model.load");
        failed := !failed + count_failed lo replies;
        to_replay := (lo, fr, sent, recv) :: !to_replay
      end
    done;
    let heap_growth = live_heap_mb () -. heap0 in
    let replay_registry = Models.open_registry ~capacity dir in
    Span.active := true;
    List.iter
      (fun (lo, fr, sent, recv) ->
        Array.iteri
          (fun k frame ->
            Span.current_op := lo + k;
            replay replay_registry ~frame ~sent:sent.(k) ~recv:recv.(k))
          fr)
      (List.rev !to_replay);
    Span.active := false;
    let f = float_of_int in
    let ops = f (passes / 2 * pool_size) in
    let self = Span.self_by_name () in
    let per_op_us name =
      Int64.to_float (Span.self_ns self name) /. 1e3 /. ops
    in
    let mean_us name = Span.mean_ns self name /. 1e3 in
    Span.write (trace_path args.workload);
    Layers
      { attempted = n_ops; failed = !failed;
        metrics =
          [ m "tablecorpus.detector_build_us" "us"
              (mean_us "tablecorpus.detector_build");
            m "minilang.compiles_per_op" "count" (f !compiles /. ops);
            m "ocaml.heap_growth_mb" "MB" heap_growth;
            m "model.find_hit_us" "us" (mean_us "model.find_hit");
            m "model.find_miss_ms" "ms" (mean_us "model.find_miss" /. 1e3);
            m "model.artifact_load_ms" "ms"
              (ratio (Int64.to_float !load_ns /. 1e6) (f !loads));
            m "model.cache_hit_share" "share"
              (ratio (f !daemon_hits) (f !daemon_finds));
            m "model.evictions" "count" (f !evictions /. ops);
            m "serve.frame_decode_us" "us" (per_op_us "serve.frame_decode");
            m "serve.request_decode_us" "us"
              (per_op_us "serve.request_decode");
            m "serve.encode_us" "us" (per_op_us "serve.encode");
            m "serve.batch_size" "count" (ratio (f !requests) (f !batches));
            m "serve.roundtrip_ms" "ms" (ms_of_ns !roundtrip_ns /. ops);
            m "serve.daemon_residual_ms" "ms"
              (per_op_us "serve.roundtrip" /. 1e3);
            overhead ~traced_ns:!traced_ns ~untraced_ns:!untraced_ns ] }
  end
