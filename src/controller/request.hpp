/**
 * @file
 * Memory request descriptor exchanged between the core models and the
 * memory controller.
 */

#ifndef CATSIM_CONTROLLER_REQUEST_HPP
#define CATSIM_CONTROLLER_REQUEST_HPP

#include "common/types.hpp"
#include "controller/address_mapping.hpp"

namespace catsim
{

/** One read or write transaction. */
struct MemRequest
{
    Addr addr = 0;
    bool isWrite = false; //!< the submit call, not this flag, decides
    CoreId core = 0;
    Cycle arrival = 0;   //!< bus cycle the request reaches the MC
    MappedAddr loc;      //!< caller-filled; read only by submitMapped
};

} // namespace catsim

#endif // CATSIM_CONTROLLER_REQUEST_HPP
