(* The repository benchmark: one process, one client, a closed loop.

     main.exe --workload integrate|query|session --seed N --seconds S
              --trace 0 --dir STORE_DIR [--nproc N] [--store-fs NAME]
     main.exe ... --trace 1 --phase plain
     main.exe ... --trace 1 --phase traced --replay N --plain-busy B
              --plain-attempted A --plain-failed F

   --trace 0 prints the end-to-end metrics. --trace 1 is two processes,
   each from a fresh start: the plain phase runs the op stream untraced
   for half the seconds; the traced phase replays the same N ops under
   tracing and prints the per-layer metrics. The last line of stdout is
   one JSON object. run.py builds this program and drives it. *)

open Imprecise
module M = Measure

(* set-up runs per run; setup_s is their median *)
let setups = 7

let workloads = [ ("integrate", Wl_integrate.make); ("query", Wl_query.make); ("session", Wl_session.make) ]

(* A second seed, fixed by the first, on which a claimed gain must also
   hold. *)
let holdout seed = ((seed * 7919) + 104729) land 0x3fffffff

(* Runs ops until [seconds] have passed and every family has the samples
   its tail needs (waiting at most twice as long for those), or exactly
   [limit] ops. Returns the number of ops run. *)
let loop s (inst : Workload.instance) ?limit ~seconds ~minimums () =
  let t0 = M.now () and n = ref 0 in
  let more () =
    match limit with
    | Some l -> !n < l
    | None ->
        let elapsed = M.now () -. t0 in
        elapsed < seconds
        || (elapsed < 2. *. seconds && List.exists (fun (f, k) -> M.count s f < k) minimums)
  in
  while more () do
    M.run_op s (inst.Workload.next ());
    incr n
  done;
  !n

let fresh (w : Workload.t) =
  Gc.full_major ();
  let t0 = M.now () in
  let inst = w.setup () in
  let dt = M.now () -. t0 in
  Gc.full_major ();
  (inst, dt)

type metric = { name : string; unit : string; value : float; note : string }

let metric ?(note = "") name unit value = { name; unit; value; note }

(* ---- end-to-end ------------------------------------------------------------ *)

let latency s family q name =
  match Hashtbl.find_opt s.M.by_family family with
  | None -> Fmt.failwith "no %s samples" family
  | Some values ->
      let v = M.percentile !values q and n = List.length !values in
      let beyond = M.beyond !values v in
      if beyond < 10 then Printf.eprintf "warning: %s has only %d samples beyond it\n%!" name beyond;
      metric name "ms" (v *. 1000.) ~note:(Printf.sprintf "n=%d, %d beyond" n beyond)

let end_to_end (w : Workload.t) ~seconds =
  (* each set-up but the last is closed before the next starts *)
  let rec set_up k times =
    let inst, dt = fresh w in
    if k = 1 then (inst, M.percentile (dt :: times) 0.5)
    else begin
      inst.Workload.close ();
      set_up (k - 1) (dt :: times)
    end
  in
  let inst, setup_s = set_up setups [] in
  let s = M.samples () in
  let limit = Option.map (fun f -> f seconds) w.fixed_ops in
  let ops = loop s inst ?limit ~seconds ~minimums:w.minimums () in
  let ops_per_s, windows = M.throughput s ~ops ~window:(w.cycle * max 1 (ops / (w.cycle * 32))) in
  let loop_families = Hashtbl.fold (fun f _ a -> f :: a) s.M.by_family [] in
  let probe_store = w.e2e_probes s in
  let disk =
    match (inst.Workload.store, probe_store) with
    | Some d, _ | None, Some d -> d
    | None, None -> failwith "no store was saved"
  in
  let disk_ratio = Ops.disk_ratio disk in
  inst.Workload.close ();
  Option.iter (fun d -> M.remove_tree d.Ops.dir) probe_store;
  let heap = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let probed f = if List.mem f loop_families then "" else " (probe)" in
  let lat family q name =
    let m = latency s family q name in
    { m with note = m.note ^ probed family }
  in
  ( s,
    [
      metric "setup_s" "s" setup_s ~note:(Printf.sprintf "median of %d" setups);
      metric "ops_per_s" "1/s" ops_per_s ~note:(Printf.sprintf "%d ops, median of %d windows" ops windows);
      lat "integrate" 0.5 "integrate_p50_ms";
      lat "integrate" 0.9 "integrate_p90_ms";
      lat "rank" 0.5 "rank_p50_ms";
      lat "rank" 0.99 "rank_p99_ms";
      lat "save" 0.5 "save_p50_ms";
      lat "save" 0.9 "save_p90_ms";
      lat "load" 0.5 "load_p50_ms";
      lat "load" 0.9 "load_p90_ms";
      metric "heap_peak_mb" "MB" heap;
      metric "disk_bytes_per_xml_byte" "ratio" disk_ratio;
    ] )

(* ---- per layer --------------------------------------------------------------- *)

(* The plain phase: [n] ops untraced, and the time they took. *)
let plain_phase (w : Workload.t) ~seconds =
  let inst, _ = fresh w in
  let s = M.samples () in
  let n = loop s inst ~seconds ~minimums:[] () in
  inst.Workload.close ();
  (n, s)

type plain = { ops : int; busy : float; attempted : int; failed : int }

let per_layer (w : Workload.t) ~seconds ~(plain : plain) =
  let inst, _ = fresh w in
  let traced = M.samples () in
  let sink, collected = Obs.Trace.collector () in
  let before = M.counters () in
  Obs.Clock.set M.now;
  Obs.Trace.install ~now:M.now sink;
  ignore (loop traced inst ~limit:plain.ops ~seconds ~minimums:[] ());
  Obs.Trace.uninstall ();
  let after = M.counters () in
  let g = M.aggregate (collected ()) in
  let probes = w.layer_probes inst in
  inst.Workload.close ();
  let d name = float_of_int (M.delta before after name) in
  let ops family = float_of_int (M.count traced family) in
  let per family v = M.ratio v (ops family) in
  let integ = [ "integrate"; "integrate_many" ] and ranks = [ "rank"; "query_store" ] in
  let self hosts key = M.per_op ~self:true g ~hosts key in
  let total hosts key = M.per_op g ~hosts key in
  let seconds_in call = Option.value ~default:0. (Hashtbl.find_opt g.M.total call) in
  let alloc =
    List.fold_left (fun a c -> a +. Option.value ~default:0. (Hashtbl.find_opt M.allocated_words c)) 0. integ
  in
  let probe name = Option.value ~default:0. (List.assoc_opt name probes) in
  ( traced,
    [
      metric "xml.parse_ms" "ms" (total [ "parse" ] "");
      metric "xml.parse_mb_per_s" "MB/s"
        (M.ratio (float_of_int Ops.tally.parsed_bytes /. 1e6) (seconds_in "parse"));
      metric "oracle.decisions" "count" (per "integrate" (d "oracle.decisions"));
      metric "oracle.cache.hit_ratio" "ratio"
        (M.ratio (d "oracle.cache.hit") (d "oracle.cache.hit" +. d "oracle.cache.miss"));
      metric "oracle.cache.evict" "count" (per "integrate" (d "oracle.cache.evict"));
      metric "integrate.call_ms" "ms" (total integ "");
      metric "integrate.match_self_ms" "ms" (self integ "match");
      metric "integrate.block_self_ms" "ms" (self integ "block");
      metric "integrate.enumerate_self_ms" "ms" (self integ "enumerate");
      metric "integrate.merge_self_ms" "ms" (self integ "merge");
      metric "integrate.reconcile_self_ms" "ms" (self integ "reconcile");
      metric "integrate.alloc_mw" "Mwords" (per "integrate" (alloc /. 1e6));
      metric "integrate.pairs_compared_share" "ratio"
        (M.ratio (d "integrate.pairs_compared") (d "integrate.pairs_generated"));
      metric "integrate.useful_pair_share" "ratio"
        (M.ratio
           (d "integrate.same_pairs" +. d "integrate.unsure_pairs")
           (d "integrate.pairs_compared"));
      metric "pxml.compact_ms" "ms" (total [ "compact" ] "");
      metric "pxml.compact_node_share" "ratio"
        (M.ratio (float_of_int Ops.tally.nodes_out) (float_of_int Ops.tally.nodes_in));
      metric "pxml.worlds_per_fallback" "count"
        (M.ratio (d "pquery.worlds_enumerated") (d "pquery.path.enumerate"));
      metric "pxml.intern.hit_ratio" "ratio"
        (M.ratio (d "pxml.intern.hit") (d "pxml.intern.hit" +. d "pxml.intern.miss"));
      metric "xpath.compile_ms" "ms" (total [ "compile" ] "");
      metric "analyze.plan_self_ms" "ms" (self ranks "analyze.plan");
      metric "analyze.check_self_ms" "ms" (self ranks "analyze.check");
      metric "analyze.summary_self_ms" "ms" (self ranks "analyze.summary");
      metric "analyze.direct_share" "ratio"
        (M.ratio (d "pquery.path.direct") (d "pquery.path.direct" +. d "pquery.path.enumerate"));
      metric "pquery.rank_ms" "ms" (total ranks "pquery.rank");
      metric "pquery.direct_self_ms" "ms" (self ranks "direct");
      metric "pquery.enumerate_self_ms" "ms" (self ranks "enumerate");
      metric "pquery.cache.hit_ratio" "ratio"
        (M.ratio (d "pquery.cache.hit") (d "pquery.cache.hit" +. d "pquery.cache.miss"));
      metric "pquery.cache.evict" "count" (per "rank" (d "pquery.cache.evict"));
      metric "store.save_self_ms" "ms" (self [ "save" ] "store.save");
      metric "store.fsyncs_per_save" "count" (per "save" (d "store.fsyncs"));
      metric "store.bytes_written_per_save" "bytes" (per "save" (d "store.bytes_written"));
      metric "store.manifest_bytes_per_save" "bytes" (per "save" (d "store.write_bytes.manifest"));
      metric "store.load_self_ms" "ms" (self [ "load" ] "store.load");
      metric "store.bytes_read_per_load" "bytes" (per "load" (d "store.bytes_read"));
      metric "store.retries" "count" (d "resilience.retries");
      metric "store.salvage_events" "count" (d "store.salvage_events");
      metric "obs.trace_overhead" "ratio" ((traced.M.busy /. plain.busy) -. 1.);
      metric "obs.events_dropped" "count" (d "obs.events_dropped");
      metric "obs.unattributed_share" "ratio" (M.ratio g.M.unattributed g.M.op_time);
      metric "obs.self_time_mismatches" "count" (float_of_int g.M.mismatches);
      metric "pxml.materialise_ms" "ms" (probe "pxml.materialise_ms");
      metric "xpath.eval_us_per_world" "us" (probe "xpath.eval_us_per_world");
      metric "pxml.bincodec_encode_ms" "ms" (probe "pxml.bincodec_encode_ms");
      metric "pxml.bincodec_decode_ms" "ms" (probe "pxml.bincodec_decode_ms");
      metric "failed_share" "ratio"
        (M.ratio
           (float_of_int (plain.failed + traced.M.failed))
           (float_of_int (plain.attempted + traced.M.attempted)));
    ] )

(* ---- main ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let dir = ref "" and nproc = ref "" and store_fs = ref "unknown" and phase = ref "" in
  let replay = ref 0 and plain_busy = ref 0. and plain_attempted = ref 0 and plain_failed = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "integrate|query|session");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--dir", Arg.Set_string dir, "fresh store directory (removed at exit)");
      ("--nproc", Arg.Set_string nproc, "usable processors");
      ("--store-fs", Arg.Set_string store_fs, "filesystem of the store directory");
      ("--phase", Arg.Set_string phase, "plain|traced (with --trace 1)");
      ("--replay", Arg.Set_int replay, "ops the plain phase ran");
      ("--plain-busy", Arg.Set_float plain_busy, "seconds the plain phase's ops took");
      ("--plain-attempted", Arg.Set_int plain_attempted, "ops the plain phase attempted");
      ("--plain-failed", Arg.Set_int plain_failed, "ops the plain phase failed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --dir D";
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None -> Fmt.failwith "unknown workload %S" !workload
  in
  if !dir = "" then failwith "--dir is required";
  let w = make ~seed:!seed ~dir:!dir in
  let facts =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("holdout_seed", string_of_int (holdout !seed));
      ("seconds", Printf.sprintf "%g" !seconds);
      ("clients", "1 (closed loop, jobs = 1)");
      ("nproc", !nproc);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("store_fs", !store_fs);
      ("fsync", "on: Io.real, tmp + fsync + rename, directory fsync, binary format");
    ]
    @ w.Workload.facts
  in
  List.iter (fun (k, v) -> Printf.printf "fact %-26s %s\n" k v) facts;
  let s, metrics, failed, attempted =
    match (!trace, !phase) with
    | 0, _ ->
        let s, m = end_to_end w ~seconds:!seconds in
        (s, m, s.M.failed, s.M.attempted)
    | 1, "plain" ->
        let n, s = plain_phase w ~seconds:(!seconds /. 2.) in
        ( s,
          [
            metric "plain_ops" "count" (float_of_int n);
            metric "plain_busy_s" "s" s.M.busy;
          ],
          s.M.failed,
          s.M.attempted )
    | 1, "traced" ->
        let plain =
          { ops = !replay; busy = !plain_busy; attempted = !plain_attempted; failed = !plain_failed }
        in
        let s, m = per_layer w ~seconds:!seconds ~plain in
        (s, m, plain.failed + s.M.failed, plain.attempted + s.M.attempted)
    | _ -> failwith "--trace 1 needs --phase plain or --phase traced"
  in
  Hashtbl.iter (fun f v -> Printf.printf "samples %-22s %d\n" f (List.length !v)) s.M.by_family;
  List.iter
    (fun m -> Printf.printf "metric %-30s %14.6g %-6s %s\n" m.name m.value m.unit m.note)
    metrics;
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (failed = 0));
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Obs.Json.Obj [ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit) ] ))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json)
