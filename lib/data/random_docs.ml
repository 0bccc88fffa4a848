module Tree = Imprecise_xml.Tree
module Pxml = Imprecise_pxml.Pxml
module Prng = Imprecise_prng.Prng

let tags = [ "a"; "b"; "c"; "item"; "name" ]

let words = [ "x"; "y"; "zz"; "hello"; "42" ]

let text rng = Prng.pick rng words

let rec xml rng ~depth =
  let tag, rng = Prng.pick rng tags in
  let n_attrs, rng = Prng.int rng 3 in
  let attrs, rng =
    List.fold_left
      (fun (acc, rng) i ->
        let v, rng = Prng.pick rng words in
        (acc @ [ (Printf.sprintf "k%d" i, v) ], rng))
      ([], rng)
      (List.init n_attrs (fun i -> i))
  in
  if depth <= 0 then
    let v, rng = Prng.pick rng words in
    (Tree.leaf ~attrs tag v, rng)
  else
    let n_children, rng = Prng.int rng 4 in
    let children, rng =
      List.fold_left
        (fun (acc, rng) _ ->
          let leafy, rng = Prng.int rng 3 in
          if leafy = 0 then
            let v, rng = Prng.pick rng words in
            (acc @ [ Tree.Text v ], rng)
          else
            let c, rng = xml rng ~depth:(depth - 1) in
            (acc @ [ c ], rng))
        ([], rng)
        (List.init n_children (fun i -> i))
    in
    (Tree.Element (tag, attrs, children), rng)

let probabilities rng n =
  let raw, rng =
    List.fold_left
      (fun (acc, rng) _ ->
        let f, rng = Prng.float rng in
        (acc @ [ f +. 0.05 ], rng))
      ([], rng)
      (List.init n (fun i -> i))
  in
  let total = List.fold_left ( +. ) 0. raw in
  (List.map (fun p -> p /. total) raw, rng)

let rec pxml_node rng ~depth : Pxml.node * Prng.t =
  let tag, rng = Prng.pick rng tags in
  if depth <= 0 then
    let v, rng = Prng.pick rng words in
    (Pxml.Elem (tag, [], [ Pxml.certain [ Pxml.Text v ] ]), rng)
  else
    let n_dists, rng = Prng.int rng 3 in
    let content, rng =
      List.fold_left
        (fun (acc, rng) _ ->
          let d, rng = pxml_dist rng ~depth:(depth - 1) in
          (acc @ [ d ], rng))
        ([], rng)
        (List.init n_dists (fun i -> i))
    in
    (Pxml.Elem (tag, [], content), rng)

and pxml_dist rng ~depth : Pxml.dist * Prng.t =
  let n_choices, rng = Prng.int rng 3 in
  let n_choices = n_choices + 1 in
  let probs, rng = probabilities rng n_choices in
  let choices, rng =
    List.fold_left
      (fun (acc, rng) prob ->
        let n_nodes, rng = Prng.int rng 3 in
        (* At most one text node per possibility, placed first: adjacent
           text nodes cannot be represented in serialised XML. *)
        let texty, rng = Prng.int rng 4 in
        let nodes, rng =
          if texty = 0 then
            let v, rng = Prng.pick rng words in
            ([ Pxml.Text v ], rng)
          else ([], rng)
        in
        let nodes, rng =
          List.fold_left
            (fun (acc, rng) _ ->
              let n, rng = pxml_node rng ~depth in
              (acc @ [ n ], rng))
            (nodes, rng)
            (List.init n_nodes (fun i -> i))
        in
        (acc @ [ Pxml.choice ~prob nodes ], rng))
      ([], rng) probs
  in
  (Pxml.dist choices, rng)

let pxml rng ~depth = pxml_dist rng ~depth
