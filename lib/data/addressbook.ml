module Tree = Imprecise_xml.Tree
module Prng = Imprecise_prng.Prng

let person name tel =
  Tree.element "person" [ Tree.leaf "nm" name; Tree.leaf "tel" tel ]

let source_a = Tree.element "addressbook" [ person "John" "1111" ]

let source_b = Tree.element "addressbook" [ person "John" "2222" ]

let dtd =
  match Imprecise_xml.Dtd.of_string "person: nm?, tel?" with
  | Ok d -> d
  | Error _ -> assert false

let first_names =
  [ "John"; "Mary"; "Ahmed"; "Wei"; "Sofia"; "Pierre"; "Anika"; "Carlos"; "Yuki"; "Femke" ]

let last_names =
  [ "Smith"; "Jansen"; "Okafor"; "Garcia"; "Chen"; "Dubois"; "Bakker"; "Rossi"; "Kim"; "Visser" ]

let larger n seed =
  let rng = ref (Prng.make seed) in
  let draw f =
    let v, r = f !rng in
    rng := r;
    v
  in
  let name i =
    let fn = List.nth first_names (i mod List.length first_names) in
    let ln = List.nth last_names ((i / List.length first_names) mod List.length last_names) in
    let gen = i / (List.length first_names * List.length last_names) in
    if gen = 0 then fn ^ " " ^ ln else Printf.sprintf "%s %s %d" fn ln gen
  in
  let tel () = Printf.sprintf "%04d" (draw (fun r -> Prng.int r 10000)) in
  let people = List.init n (fun i -> (name i, tel ())) in
  let book_a = List.map (fun (nm, t) -> person nm t) people in
  let book_b =
    List.filteri (fun i _ -> i mod 3 <> 2) people
    |> List.map (fun (nm, t) ->
           (* every few shared persons changed their number *)
           let t = if draw (fun r -> Prng.int r 4) = 0 then tel () else t in
           person nm t)
  in
  let extra_b =
    List.init (max 1 (n / 4)) (fun i -> person (name (n + i)) (tel ()))
  in
  ( Tree.element "addressbook" book_a,
    Tree.element "addressbook" (book_b @ extra_b) )
