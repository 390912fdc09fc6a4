/**
 * @file
 * Lookup in a constant name table. The named configurations, the
 * prefetch engines and the throttle policies are each one constant
 * array of rows with a std::string_view `name` member; this is the one
 * way any of them is found by name.
 */

#ifndef ECDP_MEMSIM_NAME_TABLE_HH
#define ECDP_MEMSIM_NAME_TABLE_HH

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ecdp
{

/**
 * The row of @p table named @p name. Throws std::runtime_error
 * "unknown <kind> '<name>' (known: a, b, ...)", listing every row in
 * table order, otherwise.
 */
template <typename Table>
const auto &
findByName(const Table &table, std::string_view name,
           std::string_view kind)
{
    for (const auto &row : table)
        if (row.name == name)
            return row;
    std::string known;
    for (const auto &row : table) {
        known += known.empty() ? "" : ", ";
        known += row.name;
    }
    throw std::runtime_error("unknown " + std::string(kind) + " '" +
                             std::string(name) + "' (known: " + known +
                             ")");
}

/** Every row name of @p table, in table order. */
template <typename Table>
std::vector<std::string>
namesOf(const Table &table)
{
    std::vector<std::string> names;
    for (const auto &row : table)
        names.emplace_back(row.name);
    return names;
}

} // namespace ecdp

#endif // ECDP_MEMSIM_NAME_TABLE_HH
