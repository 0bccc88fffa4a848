(* Timing, sampling and trace aggregation shared by the three workloads.

   Every time in the benchmark comes from the monotonic clock. Percentiles
   are computed from raw per-op samples (nearest rank), never from the
   program's streaming sketches. *)

open Imprecise

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* A mutable wrapper around the library's functional PRNG. *)
module Rng = struct
  type t = Data.Prng.t ref

  let make seed : t = ref (Data.Prng.make seed)

  let int (r : t) bound =
    let v, s = Data.Prng.int !r bound in
    r := s;
    v

  let float (r : t) =
    let v, s = Data.Prng.float !r in
    r := s;
    v

  let shuffle (r : t) l =
    let v, s = Data.Prng.shuffle !r l in
    r := s;
    v

  (* [weighted r cumulative] picks index i with probability proportional to
     its weight, given the running sums of the weights. *)
  let weighted r (cumulative : float array) =
    let total = cumulative.(Array.length cumulative - 1) in
    let x = float r *. total in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) > x then find lo mid else find (mid + 1) hi
    in
    find 0 (Array.length cumulative - 1)
end

(* [deck rng items] draws [items] in seeded order, each once per pass, so
   every seed draws the same multiset over whole passes. *)
let deck rng items =
  let pending = ref [] in
  fun () ->
    (match !pending with [] -> pending := Rng.shuffle rng (Array.to_list items) | _ -> ());
    match !pending with
    | x :: rest ->
        pending := rest;
        x
    | [] -> invalid_arg "deck of no items"

(* Zipf weights 1/(rank+1) for [n] items, as a cumulative table. *)
let zipf_cumulative n =
  let acc = ref 0. in
  Array.init n (fun i ->
      acc := !acc +. (1. /. float_of_int (i + 1));
      !acc)

(* ---- ops and samples ----------------------------------------------------- *)

(* One operation of a workload's closed loop. [exec] makes the public calls
   (the timed part) and returns a check, which the loop runs untimed. The
   [family] names the end-to-end latency metrics the op feeds: integrate,
   rank, save or load. *)
type op = { family : string; exec : unit -> unit -> bool }

(* Words allocated per call name while tracing. *)
let allocated_words : (string, float) Hashtbl.t = Hashtbl.create 8

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [call name f] is one public call made by an op: a benchmark span, which
   also counts the words the call allocates, when tracing is on, and just
   [f ()] otherwise. *)
let call name f =
  if not (Obs.Trace.enabled ()) then f ()
  else
    Obs.Trace.with_span ("call." ^ name) @@ fun () ->
    let a0 = allocated () in
    Fun.protect f ~finally:(fun () ->
        let prev = Option.value ~default:0. (Hashtbl.find_opt allocated_words name) in
        Hashtbl.replace allocated_words name (prev +. allocated () -. a0))

type samples = {
  by_family : (string, float list ref) Hashtbl.t;  (* seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable busy : float;  (* summed op durations, seconds *)
  mutable timeline : (float * bool) list;  (* every op's duration and success, latest first *)
}

let samples () = { by_family = Hashtbl.create 8; attempted = 0; failed = 0; busy = 0.; timeline = [] }

let count s family =
  match Hashtbl.find_opt s.by_family family with Some l -> List.length !l | None -> 0

let add s family dt =
  match Hashtbl.find_opt s.by_family family with
  | Some l -> l := dt :: !l
  | None -> Hashtbl.replace s.by_family family (ref [ dt ])

(* Run one op: the calls are timed (inside a root span [op.<family>] when
   tracing), the check is not. An exception or a failed check is a failed
   op; failed ops add no latency sample. *)
let run_op s op =
  s.attempted <- s.attempted + 1;
  let t0 = now () in
  let result = try Ok (Obs.Trace.with_span ("op." ^ op.family) op.exec) with e -> Error e in
  let dt = now () -. t0 in
  s.busy <- s.busy +. dt;
  let ok =
    match Result.map (fun check -> check ()) result with
    | Ok ok -> ok
    | Error e | (exception e) ->
        Printf.eprintf "%s op raised: %s\n%!" op.family (Printexc.to_string e);
        false
  in
  s.timeline <- (dt, ok) :: s.timeline;
  if ok then add s op.family dt
  else begin
    s.failed <- s.failed + 1;
    Printf.eprintf "failed %s op\n%!" op.family
  end

(* Nearest-rank percentile of raw samples; asserted inside [min, max]. *)
let percentile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile of no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  let v = a.(max 0 (min (n - 1) (rank - 1))) in
  assert (a.(0) <= v && v <= a.(n - 1));
  v

(* Completed ops per second of op time: the median over consecutive
   windows of [window] ops, of the first [ops] ops run. A window holds
   whole cycles of the workload's op mix, so windows are comparable, and
   the median keeps a passing disturbance of the machine out of the
   figure. Returns the value and the number of windows. *)
let throughput s ~ops ~window =
  let rec windows acc = function
    | l when List.length l < window -> acc
    | l ->
        let w = List.filteri (fun i _ -> i < window) l in
        let rest = List.filteri (fun i _ -> i >= window) l in
        let ok = List.length (List.filter snd w) in
        let busy = List.fold_left (fun a (d, _) -> a +. d) 0. w in
        windows ((float_of_int ok /. busy) :: acc) rest
  in
  let loop = List.filteri (fun i _ -> i < ops) (List.rev s.timeline) in
  match windows [] loop with
  | [] ->
      let busy = List.fold_left (fun a (d, _) -> a +. d) 0. loop in
      (float_of_int (List.length (List.filter snd loop)) /. busy, 0)
  | ws -> (percentile ws 0.5, List.length ws)

(* The number of samples strictly above [v]. *)
let beyond values v = List.length (List.filter (fun x -> x > v) values)

(* Samples needed for at least ten beyond the [q] quantile. *)
let needed_for q = int_of_float (Float.ceil (10. /. (1. -. q) -. 1e-9))

(* ---- counters ------------------------------------------------------------ *)

let counters () = (Obs.Metrics.snapshot ()).Obs.Metrics.counters

(* [delta before after name]: growth of a global counter between two
   snapshots (0 when the counter was never registered). *)
let delta before after name =
  let get snap = Option.value ~default:0 (List.assoc_opt name snap) in
  get after - get before

(* ---- span aggregation ----------------------------------------------------- *)

(* Per-op aggregation of a collected trace. Each root span is one op
   ([op.<family>]); its children are the benchmark's [call.<name>] spans,
   and the program's own spans nest below those. A span's self time is its
   duration minus what its children cover. Program spans are keyed by the
   nearest enclosing call: ["integrate_many>match"]. *)
type agg = {
  total : (string, float) Hashtbl.t;
  self : (string, float) Hashtbl.t;
  ops_with : (string, int) Hashtbl.t;  (* call name -> ops that made it *)
  mutable op_time : float;
  mutable unattributed : float;  (* op root self time *)
  mutable mismatches : int;  (* ops whose self times do not sum to the op,
                               or whose children outlast a parent *)
}

let aggregate (roots : Obs.Trace.span list) =
  let g =
    {
      total = Hashtbl.create 32; self = Hashtbl.create 32; ops_with = Hashtbl.create 16;
      op_time = 0.; unattributed = 0.; mismatches = 0;
    }
  in
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  let strip prefix s =
    let n = String.length prefix in
    if String.length s >= n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  List.iter
    (fun (root : Obs.Trace.span) ->
      match strip "op." root.name with
      | None -> ()
      | Some _ ->
          let dur = Obs.Trace.duration root in
          g.op_time <- g.op_time +. dur;
          let hosts = Hashtbl.create 4 in
          let self_sum = ref 0. and overlap = ref false in
          let rec walk host (s : Obs.Trace.span) =
            let children = List.fold_left (fun a c -> a +. Obs.Trace.duration c) 0. s.children in
            let self = Obs.Trace.duration s -. children in
            if self < -1e-9 then overlap := true;
            self_sum := !self_sum +. self;
            let host, key =
              match strip "call." s.name with
              | Some c ->
                  Hashtbl.replace hosts c ();
                  (Some c, c)
              | None -> (
                  match host with Some h -> (host, h ^ ">" ^ s.name) | None -> (host, s.name))
            in
            if s != root then begin
              bump g.total key (Obs.Trace.duration s);
              bump g.self key self
            end
            else g.unattributed <- g.unattributed +. self;
            List.iter (walk host) s.children
          in
          walk None root;
          if !overlap || Float.abs (!self_sum -. dur) > 1e-9 +. (1e-9 *. dur) then g.mismatches <- g.mismatches + 1;
          Hashtbl.iter
            (fun c () ->
              Hashtbl.replace g.ops_with c (1 + Option.value ~default:0 (Hashtbl.find_opt g.ops_with c)))
            hosts)
    roots;
  g

let ops_with g hosts =
  List.fold_left (fun a h -> a + Option.value ~default:0 (Hashtbl.find_opt g.ops_with h)) 0 hosts

(* [per_op g ~hosts key] — milliseconds per op that made one of [hosts],
   of the total (or self) time of spans named [key] under those hosts.
   [key] = "" means the host call spans themselves. 0 when no op made the
   call: the layer was idle. *)
let per_op ?(self = false) g ~hosts key =
  let tbl = if self then g.self else g.total in
  let sum =
    List.fold_left
      (fun a h ->
        a +. Option.value ~default:0. (Hashtbl.find_opt tbl (if key = "" then h else h ^ ">" ^ key)))
      0. hosts
  in
  let n = ops_with g hosts in
  if n = 0 then 0. else sum *. 1000. /. float_of_int n

(* Ratio with an idle layer (0 / 0) reported as 0. *)
let ratio a b = if b = 0. then 0. else a /. b

(* ---- store directory ------------------------------------------------------ *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes dir =
  Array.fold_left
    (fun a f -> a + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)
