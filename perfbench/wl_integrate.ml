(* integrate: a stream of source pairs as XML text, alternating 1:1 between
   Fig. 5 movie pairs (Oracle-bound) and generated address books (parse-,
   blocking- and merge-bound). Each op parses both sources, integrates them
   and compacts the result. The query and store layers sit idle in the
   loop, and the decision cache is off. *)

open Imprecise
module M = Measure

let pool_size = 8

let person_rules =
  {
    Rulesets.generic with
    Rulesets.name = "person-key";
    oracle = Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"person" ~field:"nm" ];
  }

(* The sizes are fixed, so every seed does the same amount of work: movie
   n_imdb from 20 to 60, persons from 1000 to 2000. The seed picks the
   address-book contents and the order of the ops. *)
let params seed =
  let rng = M.Rng.make seed in
  let spread lo hi i = lo + ((hi - lo) * i / (pool_size - 1)) in
  let movies = List.init pool_size (spread 20 60) in
  let persons = List.init pool_size (fun i -> (spread 1000 2000 i, M.Rng.int rng 1_000_000)) in
  (movies, persons)

let build (movies, persons) =
  let movie n = Workload.movie_pair (Data.Workloads.figure5 ~n_imdb:n) (Printf.sprintf "movies-%d" n) in
  let person (n, s) =
    let a, b = Data.Addressbook.larger n s in
    {
      Ops.label = Printf.sprintf "persons-%d" n;
      left = Xml.Printer.to_string a;
      right = Xml.Printer.to_string b;
      rules = person_rules;
      dtd = Data.Addressbook.dtd;
      factorize = true;
      blocker = Blocking.key ~field:"nm" ();
      expect = None;
    }
  in
  (Array.of_list (List.map movie movies), Array.of_list (List.map person persons))

(* Direct-routed queries for the rank probe. *)
let probe_queries =
  [
    {|//movie[.//genre="Horror"]/title|}; "//movie/title/text()"; {|//movie[year="1975"]/title|};
    "/descendant::movie/title";
  ]

let make ~seed ~dir =
  let p = params seed in
  let ref_movies, ref_persons = build p in
  Array.iter Ops.reference ref_movies;
  Array.iter Ops.reference ref_persons;
  let setup () =
    let movies, persons = build p in
    (* references are computed once per run, outside set-up *)
    Array.iteri (fun i m -> m.Ops.expect <- ref_movies.(i).Ops.expect) movies;
    Array.iteri (fun i m -> m.Ops.expect <- ref_persons.(i).Ops.expect) persons;
    let rng = M.Rng.make (seed + 1) in
    let movie = M.deck rng movies and person = M.deck rng persons in
    let turn = ref 0 in
    let next () =
      incr turn;
      Ops.integrate_op (if !turn land 1 = 1 then movie () else person ())
    in
    { Workload.next; store = None; close = ignore }
  in
  let compacted (pair : Ops.pair) =
    Compact.compact
      (Ops.get_ok Integrate.pp_error
         (Ops.integrate_pair pair (parse_xml_exn pair.Ops.left) (parse_xml_exn pair.Ops.right)))
  in
  let e2e_probes s =
    (* rank: direct queries over the smallest movie result (n_imdb 20) *)
    let small = compacted ref_movies.(0) in
    let queries = List.map (fun q -> (q, Ops.enumerated small q)) probe_queries in
    for i = 0 to (5 * M.needed_for 0.99) + 99 do
      let q, expected = List.nth queries (i mod List.length queries) in
      M.run_op s (Ops.rank_op small q expected)
    done;
    (* save and load: the two smallest movie results (n_imdb 20 and 25) *)
    Some
      (Ops.store_probe s ~dir
         [ ("movies-a", small); ("movies-b", compacted ref_movies.(1)) ]
         ~n:(3 * (M.needed_for 0.9 + 10)))
  in
  let movies, persons = p in
  {
    Workload.facts =
      [
        ("movie_n_imdb", String.concat "," (List.map string_of_int movies));
        ("persons", String.concat "," (List.map (fun (n, _) -> string_of_int n) persons));
        ( "xml_bytes_per_pair",
          String.concat ","
            (List.map
               (fun (pr : Ops.pair) -> string_of_int (String.length pr.left + String.length pr.right))
               (Array.to_list ref_movies @ Array.to_list ref_persons)) );
      ];
    cycle = 2 * pool_size;
    minimums = [ ("integrate", M.needed_for 0.9) ];
    setup;
    fixed_ops = None;
    e2e_probes;
    layer_probes = (fun _ -> []);
  }
