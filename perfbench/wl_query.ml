(* query: read-only ranked queries (Auto route, no answer cache) over the
   §VI document and the Fig. 5 document at n_imdb = 60. By count 80% of the
   queries route direct and 20% fall back to world enumeration. Integration
   and the store sit idle in the loop. *)

open Imprecise
module M = Measure

let q1 = {|//movie[.//genre="Horror"]/title|}

let direct =
  [
    q1;
    {|//movie[some $d in .//director satisfies contains($d,"John")]/title|};
    "/descendant::movie/title";
    "//movie/title/text()";
    {|//movie[year="1975"]/title|};
    {|//movie[title="Jaws"]/year|};
    "//movie/title[1]";
    {|//movie[contains(title,"Die")]/year|};
  ]

let fallback =
  [ "count(//movie)"; "//movie[1]/title"; "//movie[last()]/title"; {|count(//movie[.//genre="Horror"])|} ]

(* Per document and round: every direct query twice, every fallback once,
   in seeded order. *)
let round_queries = direct @ direct @ fallback

let section6_pair () =
  Workload.movie_pair
    ~rules:(Rulesets.movie ~genre:true ~title:true ~director:true ())
    (Data.Workloads.confusing ()) "section6"

let figure5_pair () = Workload.movie_pair (Data.Workloads.figure5 ~n_imdb:60) "figure5-60"

(* The documents are the integrations of the two source pairs. *)
let build_docs () =
  List.map
    (fun (pair : Ops.pair) ->
      let doc =
        Ops.get_ok Integrate.pp_error
          (Ops.integrate_pair pair (parse_xml_exn pair.left) (parse_xml_exn pair.right))
      in
      (pair.label, doc))
    [ section6_pair (); figure5_pair () ]

let make ~seed ~dir =
  let docs = build_docs () in
  let refs =
    List.map
      (fun (name, doc) ->
        (name, List.map (fun q -> (q, Ops.enumerated doc q)) (direct @ fallback)))
      docs
  in
  (* §VI Q1 must return only Jaws and Jaws 2 *)
  (match List.assoc q1 (List.assoc "section6" refs) with
  | answers
    when List.sort compare (List.map (fun (a : Answer.t) -> a.Answer.value) answers)
         = [ "Jaws"; "Jaws 2" ] ->
      ()
  | _ -> failwith "reference: section VI Q1 does not return exactly Jaws and Jaws 2");
  let setup () =
    let docs = build_docs () in
    let ops =
      List.concat_map
        (fun (name, doc) ->
          let expected = List.assoc name refs in
          List.map (fun q -> Ops.rank_op doc q (List.assoc q expected)) round_queries)
        docs
    in
    let next = M.deck (M.Rng.make (seed + 1)) (Array.of_list ops) in
    { Workload.next; store = None; close = ignore }
  in
  let e2e_probes s =
    (* integrate: the two source pairs the documents are built from *)
    let pairs = [| section6_pair (); figure5_pair () |] in
    Array.iter Ops.reference pairs;
    (* two of every three on the §VI pair, so that neither percentile falls
       on the gap between the two pairs' latencies *)
    for i = 0 to M.needed_for 0.9 + 9 do
      M.run_op s (Ops.integrate_op pairs.(if i mod 3 = 2 then 1 else 0))
    done;
    Some (Ops.store_probe s ~dir docs ~n:(3 * (M.needed_for 0.9 + 10)))
  in
  let layer_probes _ =
    (* materialising every world vs evaluating the fallbacks per world *)
    let materialise = ref 0. and eval = ref 0. and evaluated = ref 0 in
    List.iter
      (fun (_, doc) ->
        let t0 = M.now () in
        Seq.iter ignore (Worlds.enumerate doc);
        materialise := !materialise +. (M.now () -. t0);
        List.iter
          (fun q ->
            let expr = Xpath.Parser.parse_exn q in
            Seq.iter
              (fun (_, forest) ->
                let t0 = M.now () in
                ignore (Imprecise_pquery.Naive.answer_in_world forest expr);
                eval := !eval +. (M.now () -. t0);
                incr evaluated)
              (Worlds.enumerate doc))
          fallback)
      docs;
    [
      ("pxml.materialise_ms", !materialise *. 1000. /. float_of_int (List.length docs));
      ("xpath.eval_us_per_world", !eval *. 1e6 /. float_of_int !evaluated);
    ]
  in
  {
    Workload.facts =
      List.map
        (fun (name, doc) ->
          (name, Printf.sprintf "%d nodes, %g worlds" (node_count doc) (world_count doc)))
        docs
      @ [
          ( "queries_per_round",
            Printf.sprintf "%d direct + %d fallback per document" (2 * List.length direct)
              (List.length fallback) );
        ];
    cycle = 2 * List.length round_queries;
    minimums = [ ("rank", M.needed_for 0.99) ];
    setup;
    fixed_ops = None;
    e2e_probes;
    layer_probes;
  }
