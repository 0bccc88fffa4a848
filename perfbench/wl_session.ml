(* session: a dataspace session over 12 collections that mixes writes with
   reads. Each epoch shuffles puts (integrate_many of a Fig. 5 movie pair
   through one shared decision cache, then Store.put) with cached reads
   (query_store), then saves the store in the binary format and loads it
   back, continuing on the reopened store. A put invalidates its
   collection's cached answers; a load invalidates all of them, as a
   restart does. The answer-cache working set (12 collections x 32 queries)
   is 1.5x the 256-entry global answer cache, with Zipf popularity. *)

open Imprecise
module M = Measure

let collections = 12

let puts_per_epoch = 2

let reads_per_epoch = 16

(* Each save re-encodes every stored document, and its cost grows with the
   number of loads earlier in the process, so a session is a fixed number
   of epochs rather than a fixed time: save latency then does not depend
   on how fast the other ops ran. [epochs seconds] is calibrated to take
   about [seconds] on a 2-core box, and is never below what the save and
   load tails need. *)
let epochs seconds = max (M.needed_for 0.9 + 10) (int_of_float (4. *. seconds))

let ops_per_epoch = puts_per_epoch + reads_per_epoch + 2

let direct =
  List.map (Printf.sprintf {|//movie[.//genre="%s"]/title|})
    [ "Horror"; "Thriller"; "Action"; "Adventure"; "Documentary" ]
  @ List.map (Printf.sprintf {|//movie[year="%s"]/title|})
      [ "1975"; "1984"; "1988"; "1960"; "1967"; "1974"; "1981"; "1990"; "2000" ]
  @ List.map (Printf.sprintf {|//movie[contains(title,"%s")]/year|})
      [ "Jaws"; "Die"; "Mission"; "Part"; "Revenge" ]
  @ [
      "//movie/title/text()"; "/descendant::movie/title"; "//movie/title[1]"; "//movie/year";
      {|//movie[some $d in .//director satisfies contains($d,"John")]/title|};
      {|//movie[.//genre="Horror"]/year|}; {|//movie[title="Jaws"]/year|}; "//movie/director";
    ]

let fallback =
  [
    "count(//movie)"; "//movie[1]/title"; "//movie[last()]/title";
    {|count(//movie[.//genre="Horror"])|}; "//movie[2]/title";
  ]

(* 32 queries, ordered by popularity: a fallback at every sixth rank from
   the fourth on. *)
let queries =
  let rec interleave i d f =
    match (d, f) with
    | _, q :: f' when i mod 6 = 3 -> q :: interleave (i + 1) d f'
    | q :: d', _ -> q :: interleave (i + 1) d' f
    | [], f -> f
  in
  Array.of_list (interleave 0 direct fallback)

(* Collection c always holds the Fig. 5 pair n_imdb = sizes.(c mod 6); a
   put integrates it again, as when a source is refreshed. The sizes are
   fixed, so every seed does the same amount of work; the seed picks the
   order of the ops and which keys the reads draw. *)
let sizes = [| 10; 16; 22; 28; 34; 40 |]

let name c = Printf.sprintf "c%02d" c

type source = { n : int; trees : Tree.t list; dtd : Dtd.t; expect : float * float; answers : Answer.t list array }

let source n =
  let wl = Data.Workloads.figure5 ~n_imdb:n in
  let trees = [ Data.Workloads.mpeg7_doc wl; Data.Workloads.imdb_doc wl ] in
  let doc =
    Ops.get_ok Integrate.pp_error (integrate_many ~rules:Rulesets.full ~dtd:wl.Data.Workloads.dtd trees)
  in
  {
    n;
    trees;
    dtd = wl.Data.Workloads.dtd;
    expect = (float_of_int (node_count doc), world_count doc);
    answers = Array.map (Ops.enumerated doc) queries;
  }

(* Key popularity: Zipf over (collection, query) keys, queries in their
   listed order, collections in a fixed shuffled order. *)
let popularity = M.zipf_cumulative (collections * Array.length queries)

let key =
  let order = Array.of_list (M.Rng.shuffle (M.Rng.make 0x5e55) (List.init collections Fun.id)) in
  fun k -> (order.(k mod collections), k / collections)

let make ~seed ~dir =
  let pool = Array.map source sizes in
  let src c = pool.(c mod Array.length pool) in
  let put store decisions c =
    let s = src c in
    let doc =
      Ops.get_ok Integrate.pp_error
        (M.call "integrate_many" (fun () ->
             integrate_many ~rules:Rulesets.full ~dtd:s.dtd ~decisions s.trees))
    in
    M.call "put" (fun () -> Store.put !store (name c) (Store.Probabilistic doc));
    fun () -> (float_of_int (node_count doc), world_count doc) = s.expect
  in
  let setup () =
    Imprecise_pquery.Cache.clear Imprecise_pquery.Cache.global;
    M.remove_tree dir;
    Unix.mkdir dir 0o755;
    let decisions = Decision_cache.create () in
    let store = ref (Store.create ()) in
    for c = 0 to collections - 1 do
      let (_ : unit -> bool) = put store decisions c in
      ()
    done;
    let disk = { Ops.store; dir; saved = [] } in
    (match Store.save ~io:Store.Io.real ~format:Store.Binary !store ~dir with
    | Ok () -> disk.Ops.saved <- Ops.contents !store
    | Error e -> failwith e);
    let rng = M.Rng.make (seed + 1) in
    let target = M.deck rng (Array.init collections Fun.id) in
    let put_op () =
      let c = target () in
      { M.family = "integrate"; exec = (fun () -> put store decisions c) }
    in
    let read_op () =
      let c, q = key (M.Rng.weighted rng popularity) in
      let exec () =
        let answers = M.call "query_store" (fun () -> query_store !store (name c) queries.(q)) in
        fun () ->
          match answers with
          | Ok a ->
              Ops.same_answers a (src c).answers.(q)
              || (Fmt.epr "%s (n_imdb %d) %s:@.got@.%aexpected@.%a@." (name c) (src c).n queries.(q)
                    Answer.pp a Answer.pp (src c).answers.(q);
                  false)
          | Error e -> failwith e
      in
      { M.family = "rank"; exec }
    in
    let pending = ref [] in
    let next () =
      (match !pending with
      | [] ->
          let mixed =
            List.init puts_per_epoch (fun _ -> put_op ()) @ List.init reads_per_epoch (fun _ -> read_op ())
          in
          pending := M.Rng.shuffle rng mixed @ [ Ops.save_op disk; Ops.load_op disk ]
      | _ -> ());
      match !pending with
      | op :: rest ->
          pending := rest;
          op
      | [] -> assert false
    in
    { Workload.next; store = Some disk; close = (fun () -> M.remove_tree dir) }
  in
  let layer_probes (inst : Workload.instance) =
    (* the documents one save encodes and one load decodes *)
    let docs =
      match inst.Workload.store with
      | Some d -> List.filter_map (function _, Store.Probabilistic p -> Some p | _ -> None) d.Ops.saved
      | None -> []
    in
    let t0 = M.now () in
    let frames = List.map (fun d -> Bincodec.doc_to_string d) docs in
    let t1 = M.now () in
    List.iter (fun f -> ignore (Bincodec.of_string f)) frames;
    let t2 = M.now () in
    [ ("pxml.bincodec_encode_ms", (t1 -. t0) *. 1000.); ("pxml.bincodec_decode_ms", (t2 -. t1) *. 1000.) ]
  in
  {
    Workload.facts =
      [
        ("collections", string_of_int collections);
        ("queries_per_collection", string_of_int (Array.length queries));
        ("answer_cache_capacity", string_of_int (Imprecise_pquery.Cache.capacity Imprecise_pquery.Cache.global));
        ("n_imdb", String.concat "," (Array.to_list (Array.map string_of_int sizes)));
        ( "epoch",
          Printf.sprintf "%d puts + %d reads shuffled, then save and load" puts_per_epoch
            reads_per_epoch );
        ("fallback_queries", string_of_int (List.length fallback));
      ];
    cycle = ops_per_epoch;
    minimums =
      [ ("integrate", M.needed_for 0.9); ("rank", M.needed_for 0.99); ("save", M.needed_for 0.9); ("load", M.needed_for 0.9) ];
    setup;
    fixed_ops = Some (fun seconds -> epochs seconds * ops_per_epoch);
    e2e_probes = (fun _ -> None);
    layer_probes;
  }
