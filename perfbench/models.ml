(* The 20 popular-type models that scan_resident and serve_churn serve.
   Each process compiles them during set-up, from fixed positives: what
   varies with the seed is the traffic, not the models. *)

let types = Semtypes.Registry.popular
let type_ids = List.map (fun t -> t.Semtypes.Registry.id) types

(* The seed the [detect] and [compile] commands use for positives. *)
let model_seed = 11

(* Synthesize, compile and save every popular type into [dir]. *)
let compile_all dir =
  let registry =
    match Model.Registry.create_dir dir with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  List.iter
    (fun ty ->
      let id = ty.Semtypes.Registry.id in
      let positives =
        Semtypes.Registry.positive_examples ~n:20 ~seed:model_seed ty
      in
      let compiled =
        Autotype_core.Pipeline.compile ~index:(Corpus.search_index ())
          ~query:ty.Semtypes.Registry.name ~positives ()
      in
      match Model.Artifact.of_compiled compiled with
      | None -> failwith ("no validator synthesized for " ^ id)
      | Some a ->
        (match Model.Registry.save registry (Model.Artifact.with_type_id id a)
         with
         | Ok _ -> ()
         | Error msg -> failwith msg))
    types

let open_registry ~capacity dir =
  match Model.Registry.open_dir ~capacity dir with
  | Ok r -> r
  | Error msg -> failwith msg

let find_exn registry id =
  match Model.Registry.find registry id with
  | Ok e -> e
  | Error e -> failwith (Model.Artifact.load_error_to_string e)

(* Whether serving [entry] answers from the compiled summary rather
   than the VM (mirrors [Detect.serve_detector]'s route choice). *)
let has_fastpath (entry : Model.Registry.entry) =
  match entry.Model.Registry.artifact.Model.Artifact.summary with
  | None -> false
  | Some tree -> Option.is_some (Absint.Domain.prepare tree)

(* Seeded web-table columns: the traffic both detection workloads
   replay. *)
let columns ~seed ~n ~values_per_column =
  Tablecorpus.Webtables.generate
    ~config:
      { Tablecorpus.Webtables.default_config with
        n_columns = n; values_per_column; seed }
    ()
  |> List.map (fun c -> c.Tablecorpus.Webtables.values)
  |> Array.of_list
