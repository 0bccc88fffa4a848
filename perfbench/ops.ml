(* The four kinds of operation the workloads are built from. Each makes its
   public [Imprecise] calls inside [Measure.call] spans and returns an
   untimed check of the result. *)

open Imprecise
module M = Measure

(* ---- integrate: parse both sources, integrate, compact ------------------- *)

(* A source pair given as XML text, with the integration settings and the
   size [Integrate.stats] predicts for it. *)
type pair = {
  label : string;
  left : string;
  right : string;
  rules : Rulesets.t;
  dtd : Dtd.t;
  factorize : bool;
  blocker : Blocking.spec;
  mutable expect : (float * float) option;  (* nodes, worlds *)
}

let get_ok pp = function Ok v -> v | Error e -> Fmt.failwith "%a" pp e

let integrate_pair p a b =
  integrate ~rules:p.rules ~dtd:p.dtd ~factorize:p.factorize ~blocker:p.blocker a b

(* Computes the reference size of [p] with [Integrate.stats]. *)
let reference p =
  let a = parse_xml_exn p.left and b = parse_xml_exn p.right in
  let s =
    get_ok Integrate.pp_error
      (integration_stats ~rules:p.rules ~dtd:p.dtd ~factorize:p.factorize ~blocker:p.blocker a b)
  in
  p.expect <- Some (s.Integrate.nodes, s.Integrate.worlds)

(* Totals the integrate ops feed, for the per-layer report. *)
type tally = {
  mutable parsed_bytes : int;
  mutable nodes_in : int;
  mutable nodes_out : int;
}

let tally = { parsed_bytes = 0; nodes_in = 0; nodes_out = 0 }

let integrate_op p =
  let exec () =
    let a = M.call "parse" (fun () -> parse_xml_exn p.left) in
    let b = M.call "parse" (fun () -> parse_xml_exn p.right) in
    let doc = get_ok Integrate.pp_error (M.call "integrate" (fun () -> integrate_pair p a b)) in
    let compacted = M.call "compact" (fun () -> Compact.compact doc) in
    fun () ->
      let nodes = node_count doc in
      tally.parsed_bytes <- tally.parsed_bytes + String.length p.left + String.length p.right;
      tally.nodes_in <- tally.nodes_in + nodes;
      tally.nodes_out <- tally.nodes_out + node_count compacted;
      Some (float_of_int nodes, world_count doc) = p.expect
  in
  { M.family = "integrate"; exec }

(* ---- rank: compile, then rank under Auto without the answer cache -------- *)

(* [got] matches [expected] within 1e-9: the same values with the same
   probabilities, ranked. Values whose probabilities tie within the
   tolerance may come in either order, since the evaluators sum in
   different orders. *)
let same_answers got expected =
  let tol = 1e-9 in
  let by_value l = List.sort (fun (a : Answer.t) b -> String.compare a.value b.value) l in
  let rec ranked = function
    | (a : Answer.t) :: (b :: _ as rest) -> a.prob +. tol >= b.prob && ranked rest
    | _ -> true
  in
  ranked got && Answer.equal ~tolerance:tol (by_value got) (by_value expected)

(* [compile] + [rank_compiled] is what [Imprecise.rank] does; the two calls
   are made separately so query compilation is timed on its own. *)
let rank_op doc query expected =
  let exec () =
    let c = M.call "compile" (fun () -> Pquery.compile query) in
    let answers = M.call "rank" (fun () -> Pquery.rank_compiled doc c) in
    fun () -> same_answers answers expected
  in
  { M.family = "rank"; exec }

(* The reference answers: every possible world enumerated. *)
let enumerated doc query = rank ~strategy:Pquery.Enumerate_only doc query

(* ---- store: binary save (atomic, fsync) and load ------------------------- *)

type disk = { store : Store.t ref; dir : string; mutable saved : (string * Store.doc) list }

let disk dir store = { store = ref store; dir; saved = [] }

let contents store =
  List.map (fun n -> (n, Option.get (Store.get store n))) (Store.names store)

let save_op d =
  let exec () =
    match
      M.call "save" (fun () -> Store.save ~io:Store.Io.real ~format:Store.Binary !(d.store) ~dir:d.dir)
    with
    | Error e -> failwith e
    | Ok () ->
        fun () ->
          d.saved <- contents !(d.store);
          true
  in
  { M.family = "save"; exec }

let same_doc a b =
  match (a, b) with
  | Store.Probabilistic x, Store.Probabilistic y -> Pxml.equal x y
  | Store.Certain x, Store.Certain y -> Tree.equal x y
  | _ -> false

(* The session continues on the reopened store, as after a restart. *)
let load_op d =
  let exec () =
    match M.call "load" (fun () -> Store.load d.dir) with
    | Error e -> failwith e
    | Ok (reopened, report) ->
        d.store := reopened;
        fun () ->
          let got = contents reopened in
          Store.recovered_all report
          && List.length got = List.length d.saved
          && List.for_all2 (fun (n, a) (m, b) -> n = m && same_doc a b) got d.saved
  in
  { M.family = "load"; exec }

(* Stored bytes (documents and manifest) per byte of the same documents
   as probabilistic XML text. *)
let disk_ratio d =
  let xml_bytes =
    List.fold_left
      (fun a (_, doc) ->
        a
        + String.length
            (match doc with
            | Store.Probabilistic p -> Codec.to_string p
            | Store.Certain t -> Xml.Printer.to_string t))
      0 d.saved
  in
  M.ratio (float_of_int (M.dir_bytes d.dir)) (float_of_int xml_bytes)

(* Saves then loads a store of [docs] [n] times each: the save and load
   latency of a workload whose loop does not touch the store. *)
let store_probe s ~dir docs ~n =
  M.remove_tree dir;
  Unix.mkdir dir 0o755;
  let store = Store.create () in
  List.iter (fun (name, doc) -> Store.put store name (Store.Probabilistic doc)) docs;
  let d = disk dir store in
  for _ = 1 to n do
    M.run_op s (save_op d);
    M.run_op s (load_op d)
  done;
  d
